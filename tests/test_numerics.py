import numpy as np
import pytest

from mfsde import ExponentOverflowError, guarded_exp, mean_and_se
from mfsde.numerics import loglog_slope, running_sum


def test_guarded_exp_matches_exp_in_range():
    z = np.linspace(-600, 600, 41)
    assert np.array_equal(guarded_exp(z), np.exp(z))


def test_guarded_exp_rejects_overflow_and_nonfinite():
    with pytest.raises(ExponentOverflowError):
        guarded_exp(np.array([0.0, 701.0]))
    with pytest.raises(ExponentOverflowError):
        guarded_exp(np.array([-701.0]))
    with pytest.raises(ExponentOverflowError):
        guarded_exp(np.array([np.nan]))
    with pytest.raises(ExponentOverflowError):
        guarded_exp(np.array([np.inf]))


def test_guarded_exp_reports_worst_offender():
    with pytest.raises(ExponentOverflowError) as err:
        guarded_exp(np.array([10.0, 900.0, -50.0]))
    assert err.value.worst == 900.0


def test_mean_and_se_against_manual_formula():
    rng = np.random.default_rng(4)
    x = rng.normal(2.0, 3.0, 10_000)
    m, se = mean_and_se(x)
    assert m == pytest.approx(x.mean())
    assert se == pytest.approx(x.std(ddof=1) / np.sqrt(x.size))
    # SE shrinks like 1/sqrt(n)
    m2, se2 = mean_and_se(x[:2500])
    assert se2 == pytest.approx(2 * se, rel=0.1)


def test_mean_and_se_degenerate_inputs():
    m, se = mean_and_se(np.array([5.0]))
    assert m == 5.0
    assert se == np.inf
    m, se = mean_and_se(np.full(100, 1.25))
    assert m == 1.25
    assert se == 0.0


def test_loglog_slope_recovers_a_power_law():
    x = np.array([100.0, 200.0, 400.0, 800.0])
    assert loglog_slope(x, 3.0 * x ** -0.5) == pytest.approx(-0.5, abs=1e-12)
    assert loglog_slope([1, 2, 4], [2, 4, 8]) == pytest.approx(1.0, abs=1e-12)


def cumsum_along_paths(x):
    """np.cumsum along each path of a time-major table, via the transpose."""
    return np.cumsum(x.T, axis=1).T


@pytest.mark.parametrize("steps, n", [(1, 9), (40, 1), (40, 9)],
                         ids=["one-step", "one-path", "many"])
def test_running_sum_has_the_bits_of_cumsum_along_paths(steps, n):
    x = np.random.default_rng(5).standard_normal((steps, n))
    want = cumsum_along_paths(x)
    got = running_sum(x, out=np.empty_like(x))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # in place, as sample_brownian sums its increments
    running_sum(x, out=x)
    assert np.array_equal(x.view(np.int64), want.view(np.int64))


def test_running_sum_of_a_column_prefix_view():
    # se_rate_study solves on the first n paths, draw.values[:, :n]
    x = np.random.default_rng(6).standard_normal((30, 50))[:, :17]
    assert not x.flags.c_contiguous
    out = np.empty(x.shape)
    running_sum(x, out=out)
    want = cumsum_along_paths(x)
    assert np.array_equal(out.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("steps, n", [(200, 10_000), (200, 50_000),
                                      (40, 3000), (400, 10_000), (200, 4097)])
def test_einsum_adds_rows_in_order(steps, n):
    # DeltaSession sums the log-weight and BEL terms row by row and matches
    # the bits of np.einsum("kj,kj->j") only while einsum accumulates in
    # this order; a numpy that changes it fails here, not in the CSVs
    rng = np.random.default_rng(steps + n)
    a = rng.standard_normal((steps, n))
    b = rng.standard_normal((steps, n))
    acc = np.zeros(n)
    for k in range(steps):
        acc += a[k] * b[k]
    got = np.einsum("kj,kj->j", a, b)
    assert np.array_equal(got.view(np.int64), acc.view(np.int64))
