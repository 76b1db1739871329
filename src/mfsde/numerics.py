"""Small numeric helpers shared across modules."""

from __future__ import annotations

import sys

import numpy as np

# exp(710) overflows float64; abort a little below that
EXP_GUARD = 700.0


class ExponentOverflowError(FloatingPointError):
    """An exponent left the guarded range before exponentiation."""

    def __init__(self, worst: float):
        self.worst = worst
        super().__init__(
            f"exponent magnitude {worst:.3e} exceeds guard {EXP_GUARD:.0f}; "
            "refusing to exponentiate"
        )


def _number(value, name: str, lo=None, hi=None, integer: bool = False,
            positive: bool = False):
    """The one rule for a numeric input, named `name` in its messages.

    TypeError for a bool, and for a value that is not an int or NumPy
    integer (nor, unless `integer`, a float or NumPy float); then
    ValueError for a non-finite number, a value not above 0 when
    `positive`, or one outside [lo, hi]. Returns the value as a Python int
    or float. Every entry point checks its scalar inputs here, before any
    draw, and the command line's number rule is this one, so both refuse
    the same values in the same words.
    """
    kinds = (int, np.integer) if integer else (int, float, np.integer,
                                               np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(
            f"{name} must be {'an integer' if integer else 'a number'}")
    # compared before float(), which overflows on a huge integer; NaN and
    # an infinity fail it
    if not (integer or abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be finite")
    value = int(value) if integer else float(value)
    if positive and not value > 0:
        raise ValueError(f"{name} must be positive")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} must be <= {hi}")
    return value


def _entries(values, name: str, least: int = 2, rule=_number,
             **bounds) -> tuple:
    """At least `least` entries, none repeated, each passing
    rule(entry, "<name> entry <entry>", **bounds) before set() hashes it;
    returns what the rule returns for each, as a tuple. The abscissae of a
    log-log fit are two such entries at least, and the command line's list
    keys are checked here too.
    """
    if len(values) < least:
        raise ValueError(f"{name} must be a list of >= {least} entries")
    entries = tuple(rule(x, f"{name} entry {x!r}", **bounds) for x in values)
    if len(set(entries)) != len(entries):
        raise ValueError(f"{name} must not repeat an entry")
    return entries


def guarded_exp(exponents: np.ndarray) -> np.ndarray:
    """exp that aborts with diagnostics instead of overflowing to inf.

    Non-finite exponents are rejected too, so downstream weights and
    derivative factors are always finite and positive.
    """
    exponents = np.asarray(exponents, dtype=float)
    worst = float(np.max(np.abs(exponents))) if exponents.size else 0.0
    # NaN or inf when an exponent is non-finite, and both fail the test
    if not worst <= EXP_GUARD:
        raise ExponentOverflowError(worst)
    return np.exp(exponents)


def running_sum(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Running sums over the rows of a time-major table into out (same
    shape; may be x itself): out[k] = x[0] + ... + x[k], added in order.

    Every column gets the bits np.cumsum gives along it. np.cumsum(axis=0)
    would too, but it runs a strided inner loop that is several times
    slower on path-sized tables than adding whole rows.
    """
    out[0] = x[0]
    for k in range(1, x.shape[0]):
        np.add(out[k - 1], x[k], out=out[k])
    return out


def mean_and_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; ValueError for no samples.

    numpy sums contiguous float64 arrays pairwise in a fixed order, so the
    result is reproducible for identical inputs.
    """
    samples = np.ascontiguousarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise ValueError("samples must hold at least one value")
    m = float(samples.mean())
    if n < 2:
        return m, float("inf")
    var = float(samples.var(ddof=1))
    return m, (var / n) ** 0.5


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(np.asarray(x, dtype=float)),
                            np.log(np.asarray(y, dtype=float)), 1)[0])
