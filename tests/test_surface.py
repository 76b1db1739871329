"""The size of the public API, counted so that it cannot grow unseen.

Public parameters are counted by inspect.signature, without self or cls,
over every function in mfsde.__all__, every method defined with def in the
body of a class in __all__ whose name has no leading underscore (static
and class methods included), and DeltaSession.__init__. Fields are counted
by dataclasses.fields over the dataclasses in __all__. A change that adds
to the API edits the budget here.
"""

import dataclasses
import inspect

import mfsde
from mfsde.cli import RunConfig

MAX_PARAMETERS = 109
MAX_FIELDS = 66
EXPORTS = 58
CONFIG_KEYS = 22


def parameter_count(fn) -> int:
    return sum(1 for name in inspect.signature(fn).parameters
               if name not in ("self", "cls"))


def public_parameters() -> int:
    total = parameter_count(mfsde.DeltaSession.__init__)
    for name in mfsde.__all__:
        obj = getattr(mfsde, name)
        if inspect.isfunction(obj):
            total += parameter_count(obj)
        elif inspect.isclass(obj):
            # a static or class method wraps its function in __func__
            members = (getattr(member, "__func__", member)
                       for attr, member in vars(obj).items()
                       if not attr.startswith("_"))
            total += sum(parameter_count(member) for member in members
                         if inspect.isfunction(member))
    return total


def dataclass_fields() -> int:
    return sum(len(dataclasses.fields(obj))
               for obj in (getattr(mfsde, name) for name in mfsde.__all__)
               if inspect.isclass(obj) and dataclasses.is_dataclass(obj))


def test_public_api_stays_within_its_budget():
    assert len(mfsde.__all__) == EXPORTS
    assert public_parameters() <= MAX_PARAMETERS, public_parameters()
    assert dataclass_fields() <= MAX_FIELDS, dataclass_fields()
    keys = [f for f in dataclasses.fields(RunConfig) if f.metadata]
    assert len(keys) == CONFIG_KEYS
