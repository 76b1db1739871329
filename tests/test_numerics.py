import math

import numpy as np
import pytest

from mfsde import (DeltaSession, ExponentOverflowError, PicardConfig,
                   SeedSpec, call_payoff, check_chain_identity,
                   check_regularity, constant_drift, epsilon_moment_probe,
                   expectation_drift, front_loaded_weight, guarded_exp,
                   identity_payoff, local_time_integral, make_grid,
                   malliavin_derivative, mean_and_se, mean_field_ou,
                   mollified_convergence_study, mollify, moment_diagnostics,
                   picard_solve, sign_drift, uniform_weight)
from mfsde import cli, numerics
from mfsde.localtime import localtime_rate_study
from mfsde.numerics import loglog_slope, running_sum
from mfsde.solver import se_rate_study

SEED = SeedSpec(2024)


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


# ---------------------------------------------------------------------------
# the one number rule
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved():
    """A small solve, made before a test's work counter starts."""
    return picard_solve(mean_field_ou(), 1.0, make_grid(1.0, 10), 50, SEED)


GRID = make_grid(1.0, 10)

# (call, error, name): each call passes one inadmissible input to an entry
# point, which must refuse it before any draw or sweep with a message that
# begins with the input's name
REFUSALS = {
    "max_iterations-nan": (lambda r: PicardConfig(max_iterations=math.nan),
                           TypeError, "max_iterations"),
    "max_iterations-fraction": (lambda r: PicardConfig(max_iterations=2.5),
                                TypeError, "max_iterations"),
    "tolerance-inf": (lambda r: PicardConfig(tolerance=math.inf),
                      ValueError, "tolerance"),
    "eps-nan": (lambda r: epsilon_moment_probe(np.ones(3), eps=math.nan),
                ValueError, "eps"),
    "orders-nan": (lambda r: moment_diagnostics(r, orders=(math.nan,)),
                   ValueError, "orders"),
    "mollify-fraction": (lambda r: mollify(sign_drift(), 2.5),
                         TypeError, "n"),
    "steps-bool": (lambda r: make_grid(1.0, True), TypeError, "steps"),
    "session-n_paths-fraction": (
        lambda r: DeltaSession(mean_field_ou(), 1.0, GRID, 2.5, SEED),
        TypeError, "n_paths"),
    "seed-fraction": (lambda r: SeedSpec(1.5), TypeError, "seed"),
    "start-nan": (lambda r: picard_solve(mean_field_ou(), math.nan, GRID, 50,
                                         SEED),
                  ValueError, "start"),
    "particle_counts-one": (
        lambda r: se_rate_study(sign_drift(), 1.0, GRID, (4,), SEED),
        ValueError, "particle_counts"),
    "particle_counts-repeated": (
        lambda r: se_rate_study(sign_drift(), 1.0, GRID, (40, 40), SEED),
        ValueError, "particle_counts"),
    "levels-repeated": (
        lambda r: mollified_convergence_study(sign_drift(), 0.0, GRID, 50,
                                              SEED, levels=(4, 4)),
        ValueError, "levels"),
    "levels-fraction": (
        lambda r: mollified_convergence_study(sign_drift(), 0.0, GRID, 50,
                                              SEED, levels=(2.5, 16)),
        TypeError, "levels"),
    "step_counts-repeated": (
        lambda r: localtime_rate_study(1.0, (10, 10), 50, 0.0, SEED),
        ValueError, "step_counts"),
    "samples-zero": (lambda r: check_regularity(sign_drift(), samples=0),
                     ValueError, "samples"),
    "samples-negative": (lambda r: check_regularity(sign_drift(), samples=-3),
                         ValueError, "samples"),
    "mean_and_se-empty": (lambda r: mean_and_se(np.array([])),
                          ValueError, "samples"),
    "malliavin-bool": (lambda r: malliavin_derivative(np.zeros((11, 4)),
                                                      True, 3),
                       TypeError, "s"),
    "local_time_integral-fraction": (
        lambda r: local_time_integral(np.cos, r.brownian, 2.5, 4),
        TypeError, "s"),
    "chain-fraction": (lambda r: check_chain_identity(r, 2, 2.5, 4),
                       TypeError, "u"),
    "strike-nan": (lambda r: call_payoff(math.nan), ValueError, "strike"),
    "theta-nan": (lambda r: mean_field_ou(theta=math.nan),
                  ValueError, "theta"),
    "alpha-bool": (lambda r: sign_drift(alpha=True), TypeError, "alpha"),
    "value-inf": (lambda r: constant_drift(math.inf), ValueError, "value"),
    "growth_const-negative": (
        lambda r: expectation_drift(lambda t, y, v: y, lambda z: z,
                                    growth_const=-1.0,
                                    law_lipschitz_const=0.0),
        ValueError, "growth_const"),
    "uniform-horizon-zero": (lambda r: uniform_weight(0.0),
                             ValueError, "horizon"),
    "front_loaded-horizon-negative": (lambda r: front_loaded_weight(-1.0),
                                      ValueError, "horizon"),
    "regularity-seed-fraction": (
        lambda r: check_regularity(sign_drift(), seed=2.5),
        TypeError, "seed"),
    "regularity-seed-negative": (
        lambda r: check_regularity(sign_drift(), seed=-1),
        ValueError, "seed"),
}


def test_the_work_counter_sees_draws_and_sweeps_through_any_binding(work):
    # the session draws through sensitivity's binding of sample_brownian at
    # 0 and solves through its binding of picard_solve; the CLI module
    # holds bindings of its own
    DeltaSession(mean_field_ou(), 1.0, GRID, 50, SEED).bel(
        identity_payoff())
    assert work["draws"] == 1 and work["sweeps"] >= 1
    cli.direct_particle_solve(mean_field_ou(), 1.0, GRID, 50, SEED)
    cli.sample_brownian(GRID, 50, 0.0, SEED)
    assert work["draws"] == 3


@pytest.mark.parametrize("row", REFUSALS.values(), ids=REFUSALS.keys())
def test_entry_points_refuse_an_inadmissible_number_before_any_work(
        row, solved, work):
    call, error, name = row
    with pytest.raises(error) as err:
        call(solved)
    assert str(err.value).startswith(f"{name} ")
    assert work == {"draws": 0, "sweeps": 0}


def verdict(check):
    """What a rule makes of a value: its result, or its refusal's text."""
    try:
        value = check()
    except (TypeError, ValueError) as exc:
        return "refused", str(exc)
    return type(value), value


@pytest.mark.parametrize("rule", [{}, {"integer": True}, {"lo": 1, "hi": 2},
                                  {"lo": 1, "hi": 2, "integer": True}],
                         ids=["number", "integer", "bounded", "bounded-int"])
def test_the_cli_number_rule_is_the_library_rule(rule):
    for v in (True, math.nan, math.inf, -math.inf, 10**400, 2.5,
              np.int64(3), "3", None):
        config = verdict(lambda: cli._number(**rule)(v, "'run.x'"))
        library = verdict(lambda: numerics._number(v, "'run.x'", **rule))
        assert config == library, v
        if config[0] == "refused":
            with pytest.raises(cli.ConfigError):
                cli._number(**rule)(v, "'run.x'")
