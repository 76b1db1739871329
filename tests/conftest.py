"""Fixtures shared by the test modules."""

import pytest

import mfsde.grid as grid
import mfsde.solver as solver


@pytest.fixture
def work(monkeypatch):
    """Count the Brownian draws and the Euler sweeps made during a test.

    Every draw fills its normals in grid._normal_increments and every sweep
    runs solver._euler_sweep, whichever module's binding of sample_brownian
    or picard_solve the caller went through, so these two counts see all
    of the package's Monte Carlo work."""
    counts = {"draws": 0, "sweeps": 0}
    for module, name, key in ((grid, "_normal_increments", "draws"),
                              (solver, "_euler_sweep", "sweeps")):
        def counted(*args, _fn=getattr(module, name), _key=key, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts
