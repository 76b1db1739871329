import dataclasses
import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mfsde import (BlowUpError, DeltaSession, DriftSpec, EmpiricalMeasure,
                   MeasureFlow, PathEnsemble, PicardConfig,
                   PicardConvergenceError, SeedSpec,
                   call_payoff, constant_drift, convolution_drift, dirac,
                   direct_particle_solve, euler_under_flow, expectation_drift,
                   flow_distance, make_grid, mean_and_se, mean_field_ou,
                   moment_diagnostics, picard_solve, sample_brownian,
                   sign_drift, zero_drift)
import mfsde.grid as grid_module
from mfsde.grid import _ShiftedDraw
from mfsde.localtime import drift_cumulants
from mfsde.numerics import loglog_slope
from mfsde.solver import se_rate_study
from oracles import constant_flow, flow_of, ou_mean_ode, reference_solve

SEED = SeedSpec(314159)


def test_zero_drift_returns_the_driving_noise():
    grid = make_grid(1.0, 40)
    result = picard_solve(zero_drift(), 0.7, grid, 256, SEED)
    assert np.array_equal(result.ensemble.values, result.brownian.values)
    # the brownian initial flow is already the fixed point
    assert result.iterations == 1
    assert result.residual == 0.0
    assert result.ensemble.kind == "solution"


def test_constant_drift_shifts_paths_exactly():
    grid = make_grid(1.0, 25)
    c = 0.8
    result = picard_solve(constant_drift(c), 0.0, grid, 128, SEED)
    want = result.brownian.values + c * grid.nodes[:, None]
    assert np.allclose(result.ensemble.values, want, atol=1e-12)


def test_direct_solve_mean_follows_exact_affine_recursion():
    # with the live empirical mean in the drift, the ensemble mean obeys
    # m_{k+1} = (1 + (kappa - theta) dt) m_k + mean(dB_k) to float precision
    theta, kappa = 1.0, 0.5
    grid = make_grid(1.0, 30)
    result = direct_particle_solve(mean_field_ou(theta, kappa), 1.0, grid,
                                   512, SEED)
    means = result.ensemble.values.mean(axis=1)
    db = np.diff(result.brownian.values, axis=0).mean(axis=1)
    expected = np.empty(31)
    expected[0] = 1.0
    for k in range(30):
        expected[k + 1] = (1 + (kappa - theta) * grid.dt) * expected[k] + db[k]
    assert np.allclose(means, expected, atol=1e-12)


def test_picard_matches_ode_oracle_mean_curve():
    theta, kappa = 1.0, 0.5
    grid = make_grid(1.0, 100)
    result = picard_solve(mean_field_ou(theta, kappa), 1.0, grid, 20_000,
                          SEED)
    values = result.ensemble.values
    for k in (25, 50, 75, 100):
        m, se = mean_and_se(values[k])
        oracle = ou_mean_ode(theta, kappa, 1.0, grid.nodes[k])
        # 3 SE for the noise plus a first-order-in-dt discretization slack
        assert abs(m - oracle) <= 3 * se + 2.0 * grid.dt, f"node {k}"


def test_picard_and_direct_agree():
    grid = make_grid(1.0, 50)
    spec = mean_field_ou()
    a = picard_solve(spec, 1.0, grid, 20_000, SEED)
    b = direct_particle_solve(spec, 1.0, grid, 20_000, SEED)
    ma, sa = mean_and_se(a.ensemble.terminal())
    mb, sb = mean_and_se(b.ensemble.terminal())
    assert abs(ma - mb) <= 3 * (sa + sb) + 2.0 * grid.dt


def test_frozen_flow_reproduces_the_ensemble_bit_for_bit():
    # a tolerance above the first residual stops after one sweep, which ran
    # under the initial flow: replaying it reproduces the ensemble, and the
    # flow and the residual follow from the ensemble
    grid, n, spec = make_grid(1.0, 40), 2000, mean_field_ou()
    brownian = sample_brownian(grid, n, 1.0, SEED)
    for config, frozen in (
            (PicardConfig(tolerance=10.0), MeasureFlow.from_ensemble(brownian)),
            (PicardConfig(tolerance=10.0, initial_flow="dirac"),
             constant_flow(grid, dirac(1.0)))):
        result = picard_solve(spec, 1.0, grid, n, SEED, config)
        assert result.iterations == 1
        replay = euler_under_flow(spec, frozen, result.brownian)
        assert np.array_equal(replay.values, result.ensemble.values)
        flow = MeasureFlow.from_ensemble(replay)
        assert np.array_equal(flow.atoms, flow_of(result).atoms)
        assert result.residual == flow_distance(flow, frozen)


def default_law_drift():
    """A user drift on the default law: mu is an EmpiricalMeasure view of
    the row of the solve's buffer that the step reads."""
    return DriftSpec(
        name="default_law",
        fn=lambda t, y, mu: 0.5 * np.sign(y) - y + 0.5 * mu.mean(),
        growth_const=1.5, law_lipschitz_const=0.5)


def spy_on_sweeps(monkeypatch):
    """Record the rows in path order each sweep of a solve is handed."""
    import mfsde.solver as solver
    handed, sweep = [], solver._euler_sweep

    def spied(spec, frozen, brownian, out, unsorted=0, tolerance=None):
        handed.append(unsorted)
        return sweep(spec, frozen, brownian, out, unsorted, tolerance)

    monkeypatch.setattr(solver, "_euler_sweep", spied)
    return handed


@pytest.mark.parametrize("config", [
    PicardConfig(), PicardConfig(initial_flow="dirac"),
    PicardConfig(tolerance=1e-5),
], ids=["brownian", "dirac", "tight"])
@pytest.mark.parametrize("builder", [mean_field_ou, sign_drift,
                                     convolution_drift, default_law_drift],
                         ids=["ou", "sign", "convolution", "default-law"])
def test_picard_solve_is_the_two_flow_reference_bit_for_bit(builder, config,
                                                            monkeypatch):
    # the solve keeps one buffer, overwritten node by node inside the
    # sweep, whose rows a sweep that may be the last leaves in path order;
    # the reference builds a new flow after every sweep
    grid, n, spec = make_grid(1.0, 40), 3000, builder()
    handed = spy_on_sweeps(monkeypatch)
    result = picard_solve(spec, 1.0, grid, n, SEED, config)
    ensemble, flow, _, residuals = reference_solve(spec, 1.0, grid, n, SEED,
                                                   config)
    assert result.iterations >= 2
    # a sweep re-sorted rows past row 0, which holds x alone and so reads
    # the same in any order
    assert max(handed[:result.iterations]) >= 2, handed
    assert np.array_equal(result.ensemble.values.view(np.int64),
                          ensemble.values.view(np.int64))
    assert np.array_equal(flow_of(result).atoms.view(np.int64),
                          flow.atoms.view(np.int64))
    assert result.residual_history == residuals


def picard_brownian(spec, grid, n):
    return picard_solve(spec, 1.0, grid, n, SEED)


def direct(spec, grid, n):
    return direct_particle_solve(spec, 1.0, grid, n, SEED)


@pytest.mark.parametrize("solve, min_sweeps, builder, bound", [
    (picard_brownian, 2, sign_drift, 2.5),
    (lambda spec, grid, n: picard_solve(spec, 1.0, grid, n, SEED,
                                        PicardConfig(initial_flow="dirac")),
     2, sign_drift, 2.5),
    (direct, 1, sign_drift, 2.5),
    # a drift on the default law keeps the sorted rows of every node as
    # its laws, one more path array (3.03); the summaries of a sweep that
    # is not the last, kept alive into the next sweep, would add the rows
    # that sweep left in path order (3.77)
    (picard_brownian, 2, default_law_drift, 3.1),
    (direct, 1, default_law_drift, 3.1),
], ids=["brownian", "dirac", "direct", "default-law", "default-law-direct"])
def test_solve_peak_memory_in_path_arrays(solve, min_sweeps, builder, bound):
    # the draw and one buffer, plus the normal block of the draw; a
    # solution array beside the buffer, or a flow built from it, would
    # show here. A Picard solve must take a second sweep, which re-sorts
    # the rows the first left in path order and ends with the buffer as
    # the solution, so the bound covers that reuse of the buffer
    grid, n = make_grid(1.0, 200), 4096
    tracemalloc.start()
    try:
        result = solve(builder(), grid, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.iterations >= min_sweeps
    arrays = peak / (8 * n * (grid.steps + 1))
    assert arrays <= bound, f"peak {arrays:.2f} path arrays"


def test_direct_solve_flow_is_the_sorted_ensemble():
    result = direct_particle_solve(sign_drift(), 1.0, make_grid(1.0, 40),
                                   3000, SEED)
    got = MeasureFlow.from_ensemble(result.ensemble)
    for k, row in enumerate(result.ensemble.values):
        assert np.array_equal(got.atoms[k].view(np.int64),
                              np.sort(row).view(np.int64)), k


@pytest.mark.parametrize("builder", [sign_drift, convolution_drift,
                                     default_law_drift],
                         ids=["sign", "convolution", "default-law"])
def test_direct_solve_reads_the_law_of_the_live_states(builder):
    # step k reads spec.law of the states at node k, sorted
    spec, grid, n = builder(), make_grid(1.0, 40), 3000
    result = direct_particle_solve(spec, 1.0, grid, n, SEED)
    bv = sample_brownian(grid, n, 1.0, SEED).values
    want = np.empty_like(bv)
    want[0] = bv[0]
    for k in range(grid.steps):
        b = spec.fn(float(grid.nodes[k]), want[k], spec.law(np.sort(want[k])))
        want[k + 1] = (bv[k + 1] - bv[k]) + (want[k] + b * grid.dt)
    assert np.array_equal(result.ensemble.values.view(np.int64),
                          want.view(np.int64))


def law_bits(law):
    """The bits of a law summary: the atoms of an EmpiricalMeasure, else
    the float or floats it holds."""
    if isinstance(law, EmpiricalMeasure):
        law = law.atoms
    return np.asarray(law, dtype=float).view(np.int64)


@pytest.mark.parametrize("solve", [
    lambda spec, grid: picard_solve(spec, 1.0, grid, 3000, SEED),
    lambda spec, grid: picard_solve(spec, 1.0, grid, 3000, SEED,
                                    PicardConfig(initial_flow="dirac")),
    # several sweeps, each leaving rows in path order for the next
    lambda spec, grid: picard_solve(spec, 1.0, grid, 3000, SEED,
                                    PicardConfig(tolerance=1e-5)),
    lambda spec, grid: direct_particle_solve(spec, 1.0, grid, 3000, SEED),
], ids=["brownian", "dirac", "tight", "direct"])
@pytest.mark.parametrize("builder", [mean_field_ou, sign_drift,
                                     convolution_drift, default_law_drift],
                         ids=["ou", "sign", "convolution", "default-law"])
def test_solve_laws_are_the_law_of_each_sorted_row(solve, builder):
    # the laws the sweep took as it sorted each node are those a reader
    # would take of the solution, sorted again, bit for bit
    spec, grid = builder(), make_grid(1.0, 40)
    result = solve(spec, grid)
    assert len(result.laws) == grid.steps + 1
    for k, law in enumerate(result.laws):
        want = spec.law(np.sort(result.ensemble.values[k]))
        assert np.array_equal(law_bits(law), law_bits(want)), k
    if builder is default_law_drift:
        # each summary holds its own sorted row
        atoms = [law.atoms for law in result.laws]
        for a in atoms:
            assert not np.shares_memory(a, result.ensemble.values)
        for a, b in itertools.combinations(atoms, 2):
            assert not np.shares_memory(a, b)


def result_arrays(result):
    return {"ensemble": result.ensemble.values,
            "brownian": result.brownian.values}


@pytest.mark.parametrize("config", [
    PicardConfig(), PicardConfig(initial_flow="dirac"),
    PicardConfig(tolerance=1e-5),
], ids=["brownian", "dirac", "tight"])
def test_solve_arrays_are_read_only_and_share_no_memory(config):
    # the sweeps reuse their buffers; the result must still hand out two
    # separate, frozen arrays
    result = picard_solve(mean_field_ou(), 1.0, make_grid(1.0, 30), 2000,
                          SEED, config)
    assert result.iterations >= 2
    arrays = result_arrays(result)
    for name, a in arrays.items():
        assert not a.flags.writeable, name
    for (na, a), (nb, b) in itertools.combinations(arrays.items(), 2):
        assert not np.shares_memory(a, b), (na, nb)


def test_later_solves_leave_an_earlier_result_unchanged(monkeypatch):
    import mfsde.sensitivity as sensitivity
    spec, grid, n = sign_drift(), make_grid(1.0, 30), 2000
    first = picard_solve(spec, 1.0, grid, n, SEED)
    before = {k: v.tobytes() for k, v in result_arrays(first).items()}

    picard_solve(spec, 1.0, grid, n, SEED)
    solves = []
    solve = sensitivity.picard_solve

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sensitivity, "picard_solve", counted_solve)
    session = DeltaSession(spec, 1.0, grid, n, SEED)
    session.bel(call_payoff(1.0))
    session.finite_difference(call_payoff(1.0))
    assert len(solves) == 3

    after = {k: v.tobytes() for k, v in result_arrays(first).items()}
    assert after == before
    frozen = reference_solve(spec, 1.0, grid, n, SEED, PicardConfig())[2]
    replay = euler_under_flow(spec, frozen, first.brownian)
    assert replay.values.tobytes() == first.ensemble.values.tobytes()


def test_euler_reuses_supplied_brownian():
    grid = make_grid(1.0, 20)
    paths = sample_brownian(grid, 100, 0.0, SEED)
    flow = constant_flow(grid, dirac(0.0))
    # the driver is the pass's one source of x, the grid and the seed; a
    # shifted draw, which no seed gives, starts where it starts
    moved = PathEnsemble(grid=grid, values=paths.values + 1.5,
                         kind="brownian", seed=None)
    assert moved.start == 1.5
    for driver in (paths, moved):
        out = euler_under_flow(constant_drift(1.0), flow, driver)
        assert np.array_equal(out.values[0], driver.values[0])
        assert np.allclose(out.values, driver.values + grid.nodes[:, None])
        assert (out.kind, out.grid, out.start, out.seed) == (
            "solution", driver.grid, driver.start, driver.seed)


def test_euler_rejects_a_flow_on_another_grid_and_a_solution_driver():
    grid = make_grid(1.0, 20)
    paths = sample_brownian(grid, 200, 1.0, SEED)
    flow = MeasureFlow.from_ensemble(paths)
    spec = mean_field_ou()
    for other in (make_grid(2.0, 20), make_grid(1.0, 40)):
        with pytest.raises(ValueError, match="grid"):
            euler_under_flow(spec, constant_flow(other, dirac(1.0)),
                             paths)
    solution = euler_under_flow(spec, flow, paths)
    with pytest.raises(ValueError, match="Brownian"):
        euler_under_flow(spec, flow, solution)


def test_picard_reuses_supplied_brownian_and_rejects_a_mismatch():
    grid = make_grid(1.0, 30)
    paths = sample_brownian(grid, 500, 1.0, SEED)
    fresh = picard_solve(mean_field_ou(), 1.0, grid, 500, SEED)
    shared = picard_solve(mean_field_ou(), 1.0, grid, 500, SEED,
                          brownian=paths)
    assert shared.brownian is paths
    assert np.array_equal(shared.ensemble.values, fresh.ensemble.values)
    for bad in (sample_brownian(grid, 500, 0.0, SEED),
                sample_brownian(grid, 400, 1.0, SEED),
                sample_brownian(make_grid(1.0, 20), 500, 1.0, SEED),
                sample_brownian(grid, 500, 1.0, SEED.child(1))):
        with pytest.raises(ValueError, match="driving ensemble"):
            picard_solve(mean_field_ou(), 1.0, grid, 500, SEED,
                         brownian=bad)


def test_picard_refuses_a_solution_ensemble_as_its_driver():
    # a solution ensemble matches the grid, size, start and seed of the
    # solve it came from; the driver's row gate refuses it before the first
    # Euler step reads a drift or a law, from either start
    grid = make_grid(1.0, 20)
    spec = mean_field_ou()
    solution = picard_solve(spec, 1.0, grid, 100, SEED).ensemble
    calls = []

    def fn(t, y, mu):
        calls.append(t)
        return spec.fn(t, y, mu)

    counted = dataclasses.replace(spec, fn=fn)
    for start in ("brownian", "dirac"):
        with pytest.raises(ValueError, match="must be Brownian, got kind "
                                             "'solution'"):
            picard_solve(counted, 1.0, grid, 100, SEED,
                         PicardConfig(initial_flow=start),
                         brownian=solution)
    assert calls == []


def test_picard_refuses_a_driver_that_starts_elsewhere():
    # a draw from 1.0 starts at 1.0 whatever it is wrapped as, so a solve
    # from 2.0 cannot ride it and come out 1.0 away from its driver
    grid = make_grid(1.0, 10)
    draw = sample_brownian(grid, 50, 1.0, SEED)
    rewrapped = PathEnsemble(grid=grid, values=draw.values, kind="brownian",
                             seed=SEED)
    assert rewrapped.start == 1.0
    with pytest.raises(ValueError, match="driving ensemble"):
        picard_solve(zero_drift(), 2.0, grid, 50, SEED, brownian=rewrapped)
    solved = picard_solve(zero_drift(), 1.0, grid, 50, SEED,
                          brownian=rewrapped)
    assert np.array_equal(solved.ensemble.values, draw.values)


@pytest.mark.parametrize("spec", [sign_drift(), convolution_drift()],
                         ids=["sign", "convolution"])
@pytest.mark.parametrize("start", [1.0, 1.02, 0.98, -3.7, 1e-9, -0.0])
def test_solve_on_a_shifted_draw_is_the_solve_drawn_at_its_start(spec,
                                                                 start):
    # the delta session drives each solve with its draw at 0 read at the
    # solve's start, row by row: every output keeps the bits of the solve
    # that draws at that start, and its driver reads as that draw
    grid = make_grid(1.0, 200)
    n = 300
    view = _ShiftedDraw(sample_brownian(grid, n, 0.0, SEED), start)
    got = picard_solve(spec, start, grid, n, SEED, brownian=view)
    want = picard_solve(spec, start, grid, n, SEED)
    assert np.array_equal(got.ensemble.values, want.ensemble.values)
    assert np.array_equal(flow_of(got).atoms, flow_of(want).atoms)
    assert got.residual_history == want.residual_history
    driver = np.array(list(got.brownian._rows()))
    drawn = sample_brownian(grid, n, start, SEED).values
    assert np.array_equal(driver, drawn)
    # array_equal reads -0.0 == +0.0: row 0 must also keep the sign bit
    # of the start, as sample_brownian writes it
    for rows in ((got.ensemble.values, want.ensemble.values),
                 (flow_of(got).atoms, flow_of(want).atoms),
                 (driver, drawn)):
        assert np.array_equal(np.signbit(rows[0][0]), np.signbit(rows[1][0]))
    assert (np.signbit(got.ensemble.values[0]) == np.signbit(start)).all()
    assert np.array_equal(drift_cumulants(got), drift_cumulants(want))
    got_m, want_m = moment_diagnostics(got), moment_diagnostics(want)
    assert np.array_equal(got_m.node_moments, want_m.node_moments)
    assert got_m.envelope_ratio == want_m.envelope_ratio


def test_picard_refuses_a_shifted_draw_that_does_not_match():
    grid = make_grid(1.0, 10)
    draw = sample_brownian(grid, 50, 0.0, SEED)
    for view, n in ((_ShiftedDraw(draw, 1.5), 50),
                    (_ShiftedDraw(sample_brownian(grid, 50, 0.0,
                                                  SEED.child(1)), 1.0), 50),
                    (_ShiftedDraw(draw, 1.0), 49),
                    (_ShiftedDraw(sample_brownian(make_grid(1.0, 20), 50,
                                                  0.0, SEED), 1.0), 50)):
        with pytest.raises(ValueError, match="driving ensemble"):
            picard_solve(zero_drift(), 1.0, grid, n, SEED, brownian=view)
    solved = picard_solve(zero_drift(), 1.0, grid, 50, SEED,
                          brownian=_ShiftedDraw(draw, 1.0))
    assert np.array_equal(solved.ensemble.values,
                          sample_brownian(grid, 50, 1.0, SEED).values)


def test_residual_history_shrinks_and_converges():
    grid = make_grid(1.0, 60)
    result = picard_solve(mean_field_ou(), 1.0, grid, 5000, SEED,
                          PicardConfig(tolerance=1e-4, max_iterations=40))
    hist = result.residual_history
    assert result.residual == hist[-1]
    assert hist[-1] < 1e-4
    assert len(hist) == result.iterations
    # geometric-style decay: each residual beats its predecessor
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_initial_flow_choice_lands_on_the_same_fixed_point():
    grid = make_grid(1.0, 50)
    for builder in (mean_field_ou, sign_drift):
        spec = builder()
        cfg_b = PicardConfig(tolerance=1e-3, initial_flow="brownian")
        cfg_d = PicardConfig(tolerance=1e-3, initial_flow="dirac")
        ra = picard_solve(spec, 1.0, grid, 10_000, SEED, cfg_b)
        rb = picard_solve(spec, 1.0, grid, 10_000, SEED, cfg_d)
        assert flow_distance(flow_of(ra), flow_of(rb)) <= 2e-3, spec.name


def test_picard_convergence_error_carries_history():
    grid = make_grid(1.0, 40)
    with pytest.raises(PicardConvergenceError) as err:
        picard_solve(mean_field_ou(), 1.0, grid, 2000, SEED,
                     PicardConfig(tolerance=1e-12, max_iterations=2))
    assert len(err.value.residuals) == 2
    assert err.value.tolerance == 1e-12


def test_picard_config_rejects_a_tolerance_that_is_not_positive():
    # nan passes "tolerance <= 0" but would run every sweep and then fail
    for tolerance in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            PicardConfig(tolerance=tolerance)


def small_solve():
    return picard_solve(mean_field_ou(), 1.0, make_grid(1.0, 10), 50, SEED)


@pytest.mark.parametrize("call, match", [
    (lambda: PicardConfig(max_iterations=0), "max_iterations must be >= 1"),
    (lambda: PicardConfig(initial_flow="cauchy"),
     "unknown initial flow 'cauchy'"),
    (lambda: moment_diagnostics(small_solve(), orders=(0.0,)),
     "orders entry 0.0 must be positive"),
], ids=["max_iterations", "initial_flow", "moment_order"])
def test_solver_inputs_are_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_blow_up_raises_with_step_context():
    # growth far beyond the declared constant: paths explode quickly
    rocket = expectation_drift(
        bbar=lambda t, y, v: 40.0 * y, functional=lambda z: z,
        growth_const=40.0, law_lipschitz_const=0.0, name="rocket")
    grid = make_grid(4.0, 80)
    with pytest.raises(BlowUpError) as err:
        picard_solve(rocket, 1.0, grid, 64, SEED)
    assert err.value.step > 0


def test_non_finite_state_is_reported_as_an_infinite_blow_up():
    # the drift is NaN from node 2, so the state first leaves the finite
    # numbers at step 3
    grid = make_grid(1.0, 10)
    poisoned = expectation_drift(
        bbar=lambda t, y, v: np.full_like(y, np.nan if t > 0.15 else 0.0),
        functional=lambda z: z, growth_const=1.0, law_lipschitz_const=0.0,
        name="poisoned")
    flow = constant_flow(grid, dirac(0.0))
    with pytest.raises(BlowUpError) as err:
        euler_under_flow(poisoned, flow, sample_brownian(grid, 50, 0.0, SEED))
    assert err.value.step == 3
    assert err.value.worst == math.inf


def test_moment_diagnostics_envelope():
    grid = make_grid(1.0, 50)
    result = picard_solve(mean_field_ou(), 1.0, grid, 5000, SEED)
    report = moment_diagnostics(result, orders=(1.0, 2.0))
    assert report.node_moments.shape == (2, 51)
    assert not report.flagged
    assert report.envelope_ratio <= report.envelope_limit
    # second moments stay bounded along the run
    assert report.max_moments[1] < 5.0

    # a drift whose declared growth constant is a lie gets flagged
    liar = expectation_drift(
        bbar=lambda t, y, v: 6.0 * y, functional=lambda z: z,
        growth_const=0.01, law_lipschitz_const=0.0, name="liar")
    flagged = moment_diagnostics(picard_solve(liar, 1.0, grid, 500, SEED))
    assert flagged.flagged


def test_row_moments_equal_the_whole_array_moments():
    # moment_diagnostics raises one node at a time in a row buffer; the
    # moments must be the bits of the whole-array form
    result = picard_solve(sign_drift(), 1.0, make_grid(1.0, 40), 3001, SEED)
    orders = (0.5, 1.0, 1.5, 2.0, 3.0)
    report = moment_diagnostics(result, orders=orders)
    v = result.ensemble.values
    for p, got in zip(orders, report.node_moments):
        assert np.array_equal(got, (np.abs(v) ** p).mean(axis=1)), p


def test_solver_rejects_bad_particle_count():
    grid = make_grid(1.0, 10)
    with pytest.raises(ValueError):
        picard_solve(zero_drift(), 0.0, grid, 0, SEED)


def test_direct_solve_result_shape():
    grid = make_grid(0.5, 20)
    result = direct_particle_solve(sign_drift(), 0.1, grid, 300, SEED)
    assert result.iterations == 1
    assert result.ensemble.values.shape == (21, 300)
    assert np.all(result.ensemble.values[0] == 0.1)


def test_se_rate_study_peak_memory_in_path_arrays():
    # the draw at the largest count and the one buffer of the solve
    # running: a result kept while the next count solves would show here
    grid, counts = make_grid(1.0, 200), (1024, 2048, 4096)
    tracemalloc.start()
    try:
        se_rate_study(sign_drift(), 1.0, grid, counts, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * max(counts) * (grid.steps + 1))
    assert arrays < 2.5, f"peak {arrays:.2f} path arrays"


def test_se_rate_study_draws_once_and_matches_separate_solves(monkeypatch):
    import mfsde.solver as solver
    spec, grid, counts = sign_drift(), make_grid(1.0, 20), (100, 1000, 5000)
    separate = [
        mean_and_se(picard_solve(spec, 0.3, grid, n, SEED)
                    .ensemble.terminal())[1]
        for n in counts
    ]
    draws = []
    draw = solver.sample_brownian

    def counted_draw(*args, **kwargs):
        draws.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(solver, "sample_brownian", counted_draw)
    ses, slope = solver.se_rate_study(spec, 0.3, grid, counts, SEED)
    assert len(draws) == 1
    # 5000 paths span two particle blocks; each prefix is the n-path draw
    assert ses == separate
    assert slope == solver.loglog_slope(counts, separate)


def coupled_euler_slopes(spec, seed, n=4000, finest=800,
                         counts=(25, 50, 100, 200)):
    """Log-log slopes, L1 and L2, of the terminal error X_T^M - X_T^finest
    against dt. The paths are drawn once at the finest step count, and
    level M is solved on every (finest / M)-th row of that draw, so each
    level is driven by the same Brownian paths."""
    config = PicardConfig(tolerance=1e-5)
    draw = sample_brownian(make_grid(1.0, finest), n, 1.0, seed)
    finest_x = picard_solve(spec, 1.0, draw.grid, n, seed, config,
                            brownian=draw).ensemble.terminal()
    l1, l2 = [], []
    for m in counts:
        grid = make_grid(1.0, m)
        driver = PathEnsemble(grid=grid, values=draw.values[::finest // m],
                              kind="brownian", seed=seed)
        gap = picard_solve(spec, 1.0, grid, n, seed, config,
                           brownian=driver).ensemble.terminal() - finest_x
        l1.append(np.abs(gap).mean())
        l2.append(np.sqrt(np.mean(gap * gap)))
    dts = [1.0 / m for m in counts]
    return loglog_slope(dts, l1), loglog_slope(dts, l2)


# L1 slope bands of coupled_euler_slopes: over seeds 3, 5, 7, 11, 13, 17,
# 19, 23, 29, 31, 37 and 47 the slope read 1.070-1.096 for OU,
# 0.933-0.958 for sign and 1.027-1.048 for convolution; each band adds
# about 0.05 on either side. The L2 slope must reach the known strong
# order less 0.05: 1 for the Lipschitz drifts (it read 1.025-1.093), and
# 3/4 - eps for the sign model's drift with one jump (Neuenkirch and
# Szolgyenyi, IMA J. Numer. Anal. 2021, without the mean field; it read
# 0.794-0.858). A merely bounded measurable drift has order 1/2
# (Dareiotis and Gerencser, Electron. J. Probab. 2020).
EULER_RATE = [(mean_field_ou, (1.02, 1.15), 1.0),
              (sign_drift, (0.88, 1.01), 0.75),
              (convolution_drift, (0.98, 1.10), 1.0)]


@pytest.mark.parametrize("builder, band, order", EULER_RATE,
                         ids=["ou", "sign", "convolution"])
def test_euler_error_falls_at_its_known_rate_on_coupled_grids(builder, band,
                                                              order):
    l1, l2 = coupled_euler_slopes(builder(), SeedSpec(11))
    assert band[0] <= l1 <= band[1], l1
    assert l2 >= order - 0.05, l2


def test_an_off_by_one_euler_pass_falls_out_of_the_rate_band(monkeypatch):
    # node k paired with the increment of step k + 1 sees its noise one
    # step late, an O(sqrt(dt)) error: over the twelve seeds the L1 slope
    # read 0.537-0.572 for all three models
    import mfsde.solver as solver
    from test_layout import euler_reading_the_next_increment
    monkeypatch.setattr(solver, "_euler_sweep",
                        euler_reading_the_next_increment)
    builder, band, _ = EULER_RATE[1]
    l1, _ = coupled_euler_slopes(builder(), SeedSpec(11))
    assert not band[0] <= l1 <= band[1], l1


# ---------------------------------------------------------------------------
# settling each node on a second thread
# ---------------------------------------------------------------------------

SETTLE_GRID = make_grid(1.0, 20)


def on_threads(spec, seen):
    """spec with a law that records, in the set `seen`, each thread it is
    called on. On the calling thread it reads its atoms 1 ms late, long
    enough for a second thread that settled node k before step k read
    frozen[k] to have overwritten that row."""
    def law(atoms):
        seen.add(threading.current_thread())
        if threading.current_thread() is threading.main_thread():
            time.sleep(1e-3)
        return spec.law(atoms)
    return dataclasses.replace(spec, law=law)


def solve_at_cap(cap, monkeypatch, solve):
    """What solve() returns or raises under the thread cap `cap` on two
    CPUs, and the threads its drift's law ran on; every thread the solve
    started has stopped when it returns or raises."""
    monkeypatch.setattr(grid_module, "_threads", cap)
    monkeypatch.setattr(grid_module.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    seen = set()
    before = threading.active_count()
    try:
        outcome = solve(seen)
    except Exception as exc:  # compared across caps by the caller
        outcome = exc
    assert threading.active_count() == before
    return outcome, seen


def result_bits(result):
    return (result.ensemble.values.tobytes(), result.residual_history,
            [law_bits(law).tobytes() for law in result.laws])


@pytest.mark.parametrize("builder, initial_flow, n", [
    (sign_drift, "brownian", 16_383), (sign_drift, "brownian", 16_384),
    (sign_drift, "brownian", 50_000), (sign_drift, "dirac", 16_383),
    (sign_drift, "dirac", 16_384), (sign_drift, "dirac", 50_000),
    # converges on sweep 1: the new states are the driver's
    (zero_drift, "brownian", 50_000),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_settling_on_a_second_thread_keeps_every_bit(builder, initial_flow,
                                                     n, monkeypatch):
    def solve(seen):
        return picard_solve(on_threads(builder(), seen), 1.0, SETTLE_GRID,
                            n, SEED, PicardConfig(initial_flow=initial_flow))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = [solve_at_cap(cap, monkeypatch, solve) for cap in (1, 2, 4)]
    finally:
        sys.setswitchinterval(switch)
    (serial, seen), *threaded = runs
    assert seen == {threading.main_thread()}
    for result, seen in threaded:
        assert result_bits(result) == result_bits(serial)
        # the second thread runs from 16,384 paths on
        assert (len(seen) > 1) == (n >= 16_384)
    if builder is zero_drift:
        assert serial.iterations == 1


def test_a_threaded_solve_that_does_not_converge_has_the_serial_history(
        monkeypatch):
    def solve(seen):
        return picard_solve(sign_drift(), 1.0, SETTLE_GRID, 16_384, SEED,
                            PicardConfig(max_iterations=1))

    errors = [solve_at_cap(cap, monkeypatch, solve)[0] for cap in (1, 2)]
    assert all(isinstance(e, PicardConvergenceError) for e in errors)
    assert errors[0].residuals == errors[1].residuals
    assert str(errors[0]) == str(errors[1])


def law_refusing_a_wide_node(atoms):
    """A law that refuses atoms above 2; a Dirac start's frozen flow, one
    atom at 1.0 per node, never is."""
    if atoms[-1] > 2.0:
        raise ValueError(f"law refused a node reaching {atoms[-1]!r}")
    return float(atoms.mean())


def rocket():
    """Growth far beyond the declared constant: the states blow up."""
    return expectation_drift(
        bbar=lambda t, y, v: 40.0 * y, functional=lambda z: z,
        growth_const=40.0, law_lipschitz_const=0.0, name="rocket")


def law_refusing_a_far_node(atoms):
    """A law that refuses a node whose atoms all lie above 50."""
    if atoms[0] > 50.0:
        raise ValueError(f"law refused a node from {float(atoms[0])!r}")
    return float(atoms.mean())


def kick_then_blow_up():
    """On SETTLE_GRID, step 10 moves every state up by 100 into node 11 and
    step 12 blows the states up; the other steps add no drift."""
    push = {10: 2e3, 12: 1e9}
    return expectation_drift(
        bbar=lambda t, y, v: np.full_like(y, push.get(round(20 * t), 0.0)),
        functional=lambda z: z, growth_const=0.0, law_lipschitz_const=0.0,
        name="kick")


@pytest.mark.parametrize("spec, grid, error", [
    # raised by a step, on the calling thread
    (rocket(), make_grid(4.0, 80), BlowUpError),
    # raised by settling a node, on the second thread when it runs
    (dataclasses.replace(mean_field_ou(), law=law_refusing_a_wide_node),
     SETTLE_GRID, ValueError),
    # settling node 11 fails, then step 12 blows up: the serial run stops
    # at node 11, so the threaded run raises node 11's error, not the
    # later step's
    (dataclasses.replace(kick_then_blow_up(), law=law_refusing_a_far_node),
     SETTLE_GRID, ValueError),
], ids=["blow-up", "law", "law-then-blow-up"])
def test_a_threaded_sweep_raises_the_serial_error(spec, grid, error,
                                                  monkeypatch):
    def solve(seen):
        return picard_solve(on_threads(spec, seen), 1.0, grid, 16_384, SEED,
                            PicardConfig(initial_flow="dirac"))

    (serial, _), (threaded, seen) = (solve_at_cap(cap, monkeypatch, solve)
                                     for cap in (1, 2))
    assert type(serial) is error and type(threaded) is error
    assert str(threaded) == str(serial)
    assert len(seen) > 1


def test_a_threaded_solve_runs_one_sweep_per_iteration(work, monkeypatch):
    def solve(seen):
        return picard_solve(on_threads(sign_drift(), seen), 1.0, SETTLE_GRID,
                            16_384, SEED)

    result, seen = solve_at_cap(2, monkeypatch, solve)
    assert len(seen) > 1
    assert work["sweeps"] == result.iterations > 1
