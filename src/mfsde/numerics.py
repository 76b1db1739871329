"""Small numeric helpers shared across modules."""

from __future__ import annotations

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
    """Sample mean and its standard error.

    numpy sums contiguous float64 arrays pairwise in a fixed order, so the
    result is reproducible for identical inputs.
    """
    samples = np.ascontiguousarray(samples, dtype=float)
    n = samples.size
    m = float(samples.mean())
    if n < 2:
        return m, float("inf")
    var = float(samples.var(ddof=1))
    return m, (var / n) ** 0.5


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(np.asarray(x, dtype=float)),
                            np.log(np.asarray(y, dtype=float)), 1)[0])
