import math
import tracemalloc

import numpy as np
import pytest

from mfsde import (ExponentOverflowError, PathEnsemble, SeedSpec,
                   check_chain_identity,
                   convolution_drift, doleans_weights,
                   drift_cumulants, euler_under_flow, first_variation,
                   local_time_integral, make_grid, malliavin_derivative,
                   mean_and_se, mean_field_ou, moment_diagnostics,
                   picard_solve, sample_brownian,
                   sign_drift)
from mfsde import localtime
from mfsde.grid import _ShiftedDraw
from mfsde.localtime import _walk, localtime_rate_study
from oracles import drift_table, flow_of, particle_major_cumulative_pieces

SEED = SeedSpec(1_618_033)


def brownian(steps=200, n=2000, start=0.0, horizon=1.0):
    return sample_brownian(make_grid(horizon, steps), n, start, SEED)


def test_shifted_walk_reads_the_draw_at_its_start_bit_for_bit():
    # the delta session walks its draw at 0 shifted to x: every row, the
    # sign bit of row 0 at x = -0.0 included, is the draw at x
    draw = brownian(steps=20, n=50)
    for x in (-0.0, 0.0, 1.3, -2.7):
        drawn = brownian(steps=20, n=50, start=x).values
        rows = np.array([node.y for node in _walk(
            _ShiftedDraw(draw, x), lambda k, t, y: np.zeros_like(y))])
        assert np.array_equal(rows.view(np.int64), drawn.view(np.int64)), x


def test_constant_integrand_vanishes():
    # the local-time measure of a constant telescopes away; every increment
    # of a constant integrand is exactly zero, so no rounding survives
    paths = brownian()
    r = local_time_integral(lambda t, y: np.ones_like(y), paths, 0, 200)
    assert np.max(np.abs(r)) < 1e-12
    assert not r.any()


def test_linear_integrand_equals_negative_quadratic_variation():
    # for f(u, y) = y the scheme telescopes to -sum (dB)^2 exactly,
    # so the estimate sits at -(t - s) + O(sqrt(dt)) pathwise
    paths = brownian(steps=200)
    s, t = 50, 150
    r = local_time_integral(lambda u, y: y, paths, s, t)
    db = np.diff(paths.values[s:t + 1], axis=0)
    assert np.allclose(r, -(db ** 2).sum(axis=0), atol=1e-12)
    window = (t - s) * paths.grid.dt
    rms_err = float(np.sqrt(np.mean((r + window) ** 2)))
    predicted = math.sqrt(2.0 * paths.grid.dt * window)
    assert rms_err == pytest.approx(predicted, rel=0.15)


def test_integral_is_linear_in_the_integrand():
    paths = brownian(steps=100, n=500)
    f = lambda t, y: np.sin(y)
    g = lambda t, y: y * t
    rf = local_time_integral(f, paths, 0, 100)
    rg = local_time_integral(g, paths, 0, 100)
    combo = local_time_integral(
        lambda t, y: 2.0 * f(t, y) - 3.0 * g(t, y), paths, 0, 100)
    assert np.allclose(combo, 2.0 * rf - 3.0 * rg, atol=1e-10)


def test_integral_is_additive_over_adjacent_windows():
    paths = brownian(steps=120, n=400)
    f = lambda t, y: np.cos(y - t)
    whole = local_time_integral(f, paths, 10, 110)
    left = local_time_integral(f, paths, 10, 60)
    right = local_time_integral(f, paths, 60, 110)
    assert np.allclose(whole, left + right, atol=1e-12)


def test_smooth_oracle_for_sin_integrand():
    # for smooth f the local-time integral equals -int d/dy f(u, B_u) du
    paths = brownian(steps=400, n=1000)
    r = local_time_integral(lambda t, y: np.sin(y), paths, 0, 400)
    oracle = -np.trapezoid(np.cos(paths.values), dx=paths.grid.dt, axis=0)
    rms = float(np.sqrt(np.mean((r - oracle) ** 2)))
    assert rms < 3.0 * math.sqrt(paths.grid.dt)


def test_smooth_oracle_error_decays_at_half_order():
    errors, dts = [], []
    for steps in (100, 200, 400, 800):
        grid = make_grid(1.0, steps)
        paths = sample_brownian(grid, 1000, 0.0, SEED)
        r = local_time_integral(lambda t, y: np.sin(y), paths, 0, steps)
        oracle = -np.trapezoid(np.cos(paths.values), dx=grid.dt, axis=0)
        errors.append(float(np.sqrt(np.mean((r - oracle) ** 2))))
        dts.append(grid.dt)
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert 0.35 <= slope <= 0.65


def test_rate_study_errors_are_the_trapezoid_errors_bit_for_bit():
    # the study takes the trapezoid a row at a time; its errors must be
    # those of np.trapezoid over the whole table of cos, each level read
    # as every (finest // steps)-th row of one draw at the finest count,
    # whatever the order of the counts
    for counts in ((50, 100, 200), (200, 50, 100)):
        dts, errors, _ = localtime_rate_study(1.0, counts, 700, 0.4, SEED)
        draw = sample_brownian(make_grid(1.0, 200), 700, 0.4, SEED)
        want = []
        for steps in counts:
            grid = make_grid(1.0, steps)
            paths = PathEnsemble(grid, draw.values[::200 // steps],
                                 "brownian", SEED)
            r = local_time_integral(lambda t, y: np.sin(y), paths, 0, steps)
            oracle = -np.trapezoid(np.cos(paths.values), dx=grid.dt, axis=0)
            want.append(float(np.sqrt(np.mean((r - oracle) ** 2))))
        assert dts == [1.0 / steps for steps in counts]
        assert errors == want, counts


def test_rate_study_draws_once_at_the_finest_count(monkeypatch):
    draws = []

    def counted_draw(grid, *args):
        draws.append(grid.steps)
        return sample_brownian(grid, *args)

    monkeypatch.setattr(localtime, "sample_brownian", counted_draw)
    localtime_rate_study(1.0, (200, 50, 100), 100, 0.0, SEED)
    assert draws == [200]


def test_rate_study_refuses_a_count_that_does_not_divide_the_finest():
    for counts in ((100, 150), (150, 100, 300, 200), (0, 100)):
        with pytest.raises(ValueError,
                           match="positive divisors of|entry 0 must be >= 1"):
            localtime_rate_study(1.0, counts, 50, 0.0, SEED)


def test_node_window_validation():
    paths = brownian(steps=50, n=10)
    # the empty window integrates to exactly zero
    empty = local_time_integral(lambda t, y: y, paths, 30, 30)
    assert np.array_equal(empty, np.zeros(10))
    with pytest.raises(ValueError):
        local_time_integral(lambda t, y: y, paths, 31, 30)
    with pytest.raises(ValueError):
        local_time_integral(lambda t, y: y, paths, -1, 30)
    with pytest.raises(ValueError):
        local_time_integral(lambda t, y: y, paths, 0, 51)


def node_integrand(table, grid):
    """The integrand whose value at node k is row k of a node table."""
    return lambda u, y: table[grid.index_of(u)]


def test_window_from_node_zero_is_the_cumulant_row():
    # the two public routes to the integral agree bit for bit at s = 0
    result = picard_solve(sign_drift(), 1.0, make_grid(1.0, 120), 300, SEED)
    paths = result.brownian
    cumulants = drift_cumulants(result)
    f = node_integrand(drift_table(result.spec, flow_of(result), paths),
                       paths.grid)
    for t in (0, 1, 57, 120):
        got = local_time_integral(f, paths, 0, t)
        assert np.array_equal(got.view(np.int64),
                              cumulants[t].view(np.int64)), t


def relative_gap(table, reference):
    return float(np.max(np.abs(table - reference))
                 / np.max(np.abs(reference)))


def drift_table_and_pieces(builder):
    """The drift cumulants and node table of a solve, its Brownian paths
    and the forward, backward and correction sums of the time-reversal
    reference, time-major."""
    result = picard_solve(builder(), 1.0, make_grid(1.0, 200), 2000, SEED)
    paths = result.brownian
    fvals = drift_table(result.spec, flow_of(result), paths)
    pieces = particle_major_cumulative_pieces(fvals.T, paths.values.T,
                                              paths.start, paths.grid)
    return drift_cumulants(result), fvals, paths, [p.T for p in pieces]


@pytest.mark.parametrize("builder", [mean_field_ou, sign_drift,
                                     convolution_drift],
                         ids=["ou", "sign", "convolution"])
def test_covariation_is_the_three_piece_time_reversal_sum(builder):
    cumulants, fvals, paths, (cf, cb, cc) = drift_table_and_pieces(builder)
    reference = cf + cb + cc
    assert relative_gap(cumulants, reference) <= 1e-12
    # broken variants the comparison must reject: the covariation with f
    # read one node late, and the reference without its correction piece
    late = node_integrand(np.concatenate([fvals[:1], fvals[:-1]]),
                          paths.grid)
    late_table = np.array([local_time_integral(late, paths, 0, t)
                           for t in range(paths.grid.steps + 1)])
    assert relative_gap(late_table, reference) > 1e-12
    assert relative_gap(cf + cb, reference) > 1e-12


def peak_in_path_arrays(run, paths):
    """Peak of the arrays run() allocates, in path arrays of `paths`."""
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / paths.values.nbytes


def test_integrals_hold_no_table_beside_their_output():
    # the walk keeps O(N) state: the integral allocates no path-sized
    # array and the first variation only the table it returns
    result = picard_solve(sign_drift(), 1.0, make_grid(1.0, 400), 4000, SEED)
    paths = result.brownian
    integral = peak_in_path_arrays(
        lambda: local_time_integral(lambda t, y: np.sin(y), paths, 0, 400),
        paths)
    assert integral < 0.5, f"peak {integral:.2f} path arrays"
    dxb = lambda s, y: 0.1 * np.cos(y) + s
    variation = peak_in_path_arrays(lambda: first_variation(result, dxb),
                                    paths)
    assert variation < 1.5, f"peak {variation:.2f} path arrays"


def test_readers_of_a_shifted_driver_hold_no_shifted_copy():
    # a solve driven by a draw at 0 read at its start, as the delta session
    # drives its solves: the readers take the driver's rows one at a time,
    # so none builds a shifted copy of the draw (1 path array more)
    grid, n = make_grid(1.0, 200), 4096
    draw = sample_brownian(grid, n, 0.0, SEED)
    dxb = lambda s, y: 0.1 * np.cos(y) + s
    for name, run, bound in (
            ("first_variation", lambda r: first_variation(r, dxb), 1.5),
            ("drift_cumulants", drift_cumulants, 1.5),
            ("moment_diagnostics", moment_diagnostics, 0.5)):
        result = picard_solve(sign_drift(), 1.0, grid, n, SEED,
                              brownian=_ShiftedDraw(draw, 1.0))
        peak = peak_in_path_arrays(lambda: run(result), draw)
        assert peak < bound, f"{name}: peak {peak:.2f} path arrays"


def test_rate_study_holds_one_ensemble():
    # a table of cos beside the draw would read 2, and a contiguous copy
    # of a coarse level (the 800-step one is half the draw) 1.5
    counts, n = (100, 200, 400, 800, 1600), 4000
    tracemalloc.start()
    try:
        localtime_rate_study(1.0, counts, n, 1.0, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * n * (max(counts) + 1))
    assert arrays < 1.2, f"peak {arrays:.2f} path arrays"


def test_only_the_first_variation_exponentiates_the_cumulants():
    # with theta = 5 over T = 200 the cumulants grow to about theta T =
    # 1000, past the 700 guard; the integral and the cumulant table take
    # no exponential, the first variation must
    theta = 5.0
    grid = make_grid(200.0, 2000)
    result = picard_solve(mean_field_ou(theta=theta), 1.0, grid, 200, SEED)
    cumulants = drift_cumulants(result)
    assert np.max(np.abs(cumulants[-1])) > 700.0
    integral = local_time_integral(lambda t, y: -theta * y, result.brownian,
                                   0, grid.steps)
    assert np.max(np.abs(integral)) > 700.0
    with pytest.raises(ExponentOverflowError):
        first_variation(result)


def test_local_time_requires_brownian_kind():
    grid = make_grid(1.0, 30)
    result = picard_solve(mean_field_ou(), 1.0, grid, 50, SEED)
    with pytest.raises(ValueError):
        local_time_integral(lambda t, y: y, result.ensemble, 0, 30)


def test_malliavin_matches_linear_model_closed_form():
    # for drift -theta y + kappa E[mu] the noise derivative is
    # exp(-theta (t - s)), independent of the path
    theta = 1.0
    grid = make_grid(1.0, 400)
    result = picard_solve(mean_field_ou(theta=theta), 1.0, grid, 1000, SEED)
    for s, t in ((0, 400), (100, 300), (350, 400)):
        d = malliavin_derivative(drift_cumulants(result), s, t)
        want = math.exp(-theta * (t - s) * grid.dt)
        rms = float(np.sqrt(np.mean((d - want) ** 2)))
        assert rms <= 2.0 * math.sqrt(grid.dt), (s, t)


def test_malliavin_window_must_lie_in_the_table():
    c = np.zeros((11, 4))
    assert np.array_equal(malliavin_derivative(c, 3, 10), np.ones(4))
    for s, t in ((5, 4), (-1, 3), (0, 11)):
        with pytest.raises(ValueError):
            malliavin_derivative(c, s, t)


@pytest.mark.parametrize("call, error, match", [
    (lambda: local_time_integral(lambda t, y: np.full_like(y, np.nan),
                                 brownian(steps=10, n=20), 0, 10),
     FloatingPointError, "integrand non-finite along paths"),
    (lambda: check_chain_identity(picard_solve(
        mean_field_ou(), 1.0, make_grid(1.0, 10), 50, SEED), 5, 4, 10),
     ValueError, "u must be >= 5"),
], ids=["nan_integrand", "s_after_u"])
def test_local_time_readers_refuse_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_malliavin_cocycle_and_positivity():
    for builder in (mean_field_ou, sign_drift):
        grid = make_grid(1.0, 200)
        result = picard_solve(builder(), 1.0, grid, 2000, SEED)
        c = drift_cumulants(result)
        full = malliavin_derivative(c, 0, 200)
        split = (malliavin_derivative(c, 0, 80)
                 * malliavin_derivative(c, 80, 200))
        assert np.max(np.abs(full - split)) < 1e-12
        assert np.all(full > 0)


def test_first_variation_without_law_term():
    # kappa = 0 removes the law feedback: d X_t / dx = exp(-theta t)
    theta = 1.0
    grid = make_grid(1.0, 400)
    result = picard_solve(mean_field_ou(theta=theta, kappa=0.0), 1.0, grid,
                          1000, SEED)
    fv = first_variation(result)
    want = np.exp(-theta * grid.nodes)
    rms = float(np.sqrt(np.mean((fv - want[:, None]) ** 2)))
    assert rms <= 2.0 * math.sqrt(grid.dt)


def test_first_variation_with_law_term_hits_closed_form():
    # with the mean feedback the initial-condition derivative is
    # exp((kappa - theta) t); kappa exp((kappa - theta) s) is the exact
    # x-derivative of the drift through the law argument
    theta, kappa = 1.0, 0.5
    grid = make_grid(1.0, 400)
    result = picard_solve(mean_field_ou(theta, kappa), 1.0, grid, 1000, SEED)
    dxb = lambda s, y: np.full_like(y, kappa * math.exp((kappa - theta) * s))
    fv = first_variation(result, dxb=dxb)
    want = np.exp((kappa - theta) * grid.nodes)
    rms = float(np.sqrt(np.mean((fv - want[:, None]) ** 2)))
    assert rms <= 2.0 * math.sqrt(grid.dt)


def test_chain_identity_report():
    grid = make_grid(1.0, 400)
    result = picard_solve(mean_field_ou(), 1.0, grid, 1000, SEED)
    report = check_chain_identity(result, 0, 200, 400)
    assert report.chain_rms <= 5.0 * math.sqrt(grid.dt)
    assert report.cocycle_max < 1e-12


# ---------------------------------------------------------------------------
# Malliavin derivative against a Cameron-Martin shift of the driving noise
# ---------------------------------------------------------------------------
#
# D_s X_t is the derivative of X_t along the shift eps 1_{[s, T]} of the
# Brownian path (Nualart, The Malliavin Calculus and Related Topics, 2006,
# section 1.2). Under the frozen flow of a solve, a central difference of
# two Euler passes driven by B +/- eps 1_{(t_s, T]} estimates E[D_s X_t]
# without the local-time machinery; the cumulant route estimates it as
# E[w exp(-(C_t - C_s))] over the Brownian representation.

EPS = 0.02
WINDOWS = ((0.0, 0.5), (0.25, 1.0), (0.5, 1.0))
ORACLE_PATHS = 20_000


def shifted(paths, s, eps):
    """The ensemble with eps added at every node after s."""
    values = paths.values.copy()
    values[s + 1:] += eps
    return PathEnsemble(grid=paths.grid, values=values, kind="brownian",
                        seed=paths.seed)


def coarse(paths, r):
    """The ensemble at every r-th node: an exact Brownian ensemble on the
    grid of steps / r steps that shares the fine noise (Giles, Multilevel
    Monte Carlo path simulation, Oper. Res. 2008)."""
    return PathEnsemble(grid=make_grid(paths.grid.horizon,
                                       paths.grid.steps // r),
                        values=np.ascontiguousarray(paths.values[::r]),
                        kind="brownian", seed=paths.seed)


def malliavin_windows(builder, paths):
    """One row per window, driven by the Brownian ensemble `paths`: s, t,
    the shift estimate, the cumulant estimate, the cumulant estimate with
    C of the wrong sign, their combined standard error and the tolerance.

    The tolerance is 3 combined standard errors, plus eps^2 for the
    central difference and one dt (horizon 1) for the Euler schemes.
    """
    grid, steps = paths.grid, paths.grid.steps
    result = picard_solve(builder(), 1.0, grid, ORACLE_PATHS, SEED,
                          brownian=paths)
    spec, flow = result.spec, flow_of(result)
    weights = doleans_weights(spec, result.laws, paths)
    c = drift_cumulants(result)
    rows = []
    for fs, ft in WINDOWS:
        s, t = round(fs * steps), round(ft * steps)
        up, down = (euler_under_flow(spec, flow, shifted(paths, s, e))
                    for e in (EPS, -EPS))
        shift, shift_se = mean_and_se(
            (up.values[t] - down.values[t]) / (2.0 * EPS))
        local, local_se = mean_and_se(
            weights * malliavin_derivative(c, s, t))
        wrong, _ = mean_and_se(weights * malliavin_derivative(-c, s, t))
        se = math.hypot(shift_se, local_se)
        rows.append((s, t, shift, local, wrong, se,
                     3.0 * se + EPS ** 2 + grid.dt))
    return rows


@pytest.mark.parametrize("builder", [mean_field_ou, sign_drift,
                                     convolution_drift],
                         ids=["ou", "sign", "convolution"])
def test_malliavin_derivative_matches_a_cameron_martin_shift(builder):
    # the M = 100 level rides every 4th node of the M = 400 draw, so the
    # two levels share their noise and their gaps differ by the Euler bias
    fine = sample_brownian(make_grid(1.0, 400), ORACLE_PATHS, 1.0, SEED)
    levels = {100: malliavin_windows(builder, coarse(fine, 4)),
              400: malliavin_windows(builder, fine)}
    for steps, rows in levels.items():
        for s, t, shift, local, wrong, _, tol in rows:
            assert abs(shift - local) <= tol, (steps, s, t, shift, local)
            # cumulants of the wrong sign must fail the same tolerance
            assert abs(shift - wrong) > tol, (steps, s, t, shift, wrong)
            if builder is mean_field_ou:
                # D_s X_t = (1 - theta dt)^(t - s) in node units, theta = 1
                closed = (1.0 - 1.0 / steps) ** (t - s)
                assert abs(local - closed) <= tol, (steps, s, t, local)
    worst = {steps: max(abs(r[2] - r[3]) for r in rows)
             for steps, rows in levels.items()}
    if builder is convolution_drift:
        # the Euler bias (about 0.01 at M = 100) stands well above the
        # noise and shrinks with dt
        assert worst[400] < worst[100], worst
    else:
        # the gap sits at the noise floor (combined SE about 0.0025), so
        # refining may not widen it by more than 2 combined SEs of the two
        # levels; cumulants of the wrong sign must fail that bound
        se = math.hypot(max(r[5] for r in levels[100]),
                        max(r[5] for r in levels[400]))
        bound = worst[100] + 2.0 * se
        assert worst[400] <= bound, (worst, se)
        wrong = max(abs(r[2] - r[4]) for r in levels[400])
        assert wrong > bound, (wrong, bound)
