import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mfsde.sensitivity as sensitivity
from mfsde import (DeltaSession, DriftSpec, EmpiricalMeasure,
                   ExponentOverflowError, Payoff, PicardConfig, SeedSpec,
                   call_payoff, check_chain_identity, check_regularity,
                   constant_drift, constant_payoff, convolution_drift,
                   default_bump, doleans_weights, drift_cumulants,
                   expectation_drift,
                   expectation_square_drift, first_variation,
                   front_loaded_weight, identity_payoff, make_grid,
                   mean_and_se, mean_field_ou, mollified_convergence_study,
                   picard_solve, reweighted_expectation, sample_brownian,
                   sign_drift, square_payoff, uniform_weight, zero_drift)
from mfsde.cli import main as cli_main
from mfsde.girsanov import drift_along_paths
from mfsde.grid import _ShiftedDraw
from oracles import (discrete_ou_mean, expectation_square_law_derivative,
                     flow_of, forward_law_gradient, ou_mean_ode, table_bel,
                     table_path_terms, table_pathwise)

SEED = SeedSpec(9_462_371)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------

def test_weight_functions_validate():
    grid = make_grid(2.0, 50)
    for builder in (uniform_weight, front_loaded_weight):
        a, big = builder(2.0).validate(grid)
        assert a.shape == big.shape == grid.nodes.shape
        assert big[0] == 0.0
        assert big[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(a))


def test_weight_function_must_integrate_to_one():
    from mfsde import WeightFunctionA
    bad = WeightFunctionA("half", fn=lambda s: np.full_like(s, 0.5))
    with pytest.raises(ValueError, match="integrates to 0.5"):
        bad.validate(make_grid(1.0, 20))


def test_bel_refuses_a_weight_that_misses_one_before_any_solve(counted):
    # a NaN total fails the integral-one check, and a built-in weight made
    # for T = 2 integrates to 0.5 (uniform) or 0.75 (front loaded) on T = 1
    from mfsde import WeightFunctionA
    grid = make_grid(1.0, 40)
    session = DeltaSession(mean_field_ou(), 1.0, grid, 100, SEED)
    nan = WeightFunctionA("nan", fn=lambda s: np.full_like(s, np.nan))
    for weight, total in ((nan, "nan"), (uniform_weight(2.0), "0.5"),
                          (front_loaded_weight(2.0), "0.75")):
        with pytest.raises(ValueError, match=f"integrates to {total}"):
            session.bel(identity_payoff(), weight)
    assert counted == {"solves": 0, "draws": 0}


# ---------------------------------------------------------------------------
# delta estimators against closed forms
# ---------------------------------------------------------------------------

def test_flat_model_delta_is_one():
    grid = make_grid(1.0, 50)
    r = DeltaSession(zero_drift(), 0.0, grid, 20_000, SEED).bel(
        identity_payoff())
    assert abs(r.estimate - 1.0) <= 3 * r.stderr
    assert r.label.startswith("bel")


def test_bel_matches_linear_model_closed_form():
    grid = make_grid(1.0, 100)
    r = DeltaSession(mean_field_ou(), 1.0, grid, 20_000, SEED).bel(
        identity_payoff())
    want = math.exp(-0.5)
    assert abs(r.estimate - want) <= 3 * r.stderr + 2 * grid.dt


def test_pathwise_identity_and_square_payoffs():
    # d/dx E[X_T] = e^{(kappa-theta) T}; d/dx E[X_T^2] = 2 e^{-1} at T = 1
    grid = make_grid(1.0, 100)
    session = DeltaSession(mean_field_ou(), 1.0, grid, 20_000, SEED)
    r1 = session.pathwise(identity_payoff())
    assert abs(r1.estimate - math.exp(-0.5)) <= 3 * r1.stderr + 2 * grid.dt
    r2 = session.pathwise(square_payoff())
    assert abs(r2.estimate - 2 * math.exp(-1.0)) <= 3 * r2.stderr + 4 * grid.dt


def test_pathwise_needs_a_derivative():
    grid = make_grid(1.0, 20)
    eyeless = Payoff("opaque", fn=lambda y: np.maximum(y, 0.0),
                     derivative=None)
    with pytest.raises(ValueError):
        DeltaSession(mean_field_ou(), 1.0, grid, 100, SEED).pathwise(eyeless)


def test_finite_difference_is_deterministic_under_crn():
    # common random numbers cancel the noise exactly: the per-path
    # difference quotient is constant, so the standard error vanishes
    grid = make_grid(1.0, 100)
    r = DeltaSession(mean_field_ou(), 1.0, grid, 5000,
                     SEED).finite_difference(identity_payoff())
    assert r.stderr < 1e-10


def test_finite_difference_hits_discrete_fixed_point_derivative():
    # the exact x-derivative of the discretized system's terminal mean is
    # (1 + (kappa - theta) dt)^M; with a tight Picard tolerance the CRN
    # difference quotient must reproduce it almost to rounding
    grid = make_grid(1.0, 100)
    tight = PicardConfig(tolerance=1e-8, max_iterations=80)
    r = DeltaSession(mean_field_ou(), 1.0, grid, 5000, SEED,
                     tight).finite_difference(identity_payoff())
    oracle = discrete_ou_mean(1.0, 0.5, 1.0, 1.0, 100)
    assert abs(r.estimate - oracle) < 1e-8


def test_constant_payoff_all_deltas_vanish():
    grid = make_grid(1.0, 50)
    payoff = constant_payoff(3.0)
    session = DeltaSession(mean_field_ou(), 1.0, grid, 2000, SEED)
    fd = session.finite_difference(payoff)
    assert fd.estimate == 0.0
    pw = session.pathwise(payoff)
    assert pw.estimate == 0.0
    bel = DeltaSession(mean_field_ou(), 1.0, grid, 20_000, SEED).bel(payoff)
    assert abs(bel.estimate) <= 3 * bel.stderr


def test_three_estimators_agree_on_linear_model():
    # the stochastic-integral estimator carries an O(dt) weak error from
    # its left-point scheme (measured constant about 0.4), so comparisons
    # against the other two routes get a dt allowance on top of the noise
    grid = make_grid(1.0, 200)
    n = 20_000
    session = DeltaSession(mean_field_ou(), 1.0, grid, n, SEED)
    b = session.bel(identity_payoff())
    p = session.pathwise(identity_payoff())
    f = session.finite_difference(identity_payoff())
    h = default_bump(1.0)
    assert abs(b.estimate - p.estimate) <= (3 * (b.stderr + p.stderr)
                                            + grid.dt)
    assert abs(b.estimate - f.estimate) <= (3 * (b.stderr + f.stderr)
                                            + h * h + grid.dt)


def test_weight_choice_does_not_move_the_estimate():
    grid = make_grid(1.0, 100)
    n = 20_000
    session = DeltaSession(mean_field_ou(), 1.0, grid, n, SEED)
    ru = session.bel(identity_payoff(), uniform_weight(1.0))
    rf = session.bel(identity_payoff(), front_loaded_weight(1.0))
    assert ru.label != rf.label
    assert abs(ru.estimate - rf.estimate) <= 3 * (ru.stderr + rf.stderr)


# ---------------------------------------------------------------------------
# derivative of the drift through its law argument
# ---------------------------------------------------------------------------

def test_law_derivative_vanishes_without_law_dependence():
    grid = make_grid(1.0, 50)
    ev = DeltaSession(constant_drift(0.7), 0.0, grid, 2000,
                      SEED).law_derivative()
    vals = ev(0.5, np.linspace(-2, 2, 9))
    assert np.max(np.abs(vals)) == 0.0


def test_law_derivative_matches_linear_model():
    # the drift reads the mean: d/dx b = kappa e^{(kappa - theta) s}
    theta, kappa = 1.0, 0.5
    grid = make_grid(1.0, 100)
    ev = DeltaSession(mean_field_ou(theta, kappa), 1.0, grid, 20_000,
                      SEED).law_derivative()
    for s in (0.0, 0.25, 0.5, 1.0):
        got = float(ev(s, np.array([0.0]))[0])
        want = kappa * ou_mean_ode(theta, kappa, 1.0, s) if s > 0 else kappa
        assert abs(got - want) <= 2e-3, s


def test_law_derivative_matches_moment_ode_oracle():
    # drift reads the second moment; oracle integrates the variational
    # moment ODE system with RK4
    theta, kappa, x = 1.0, 0.25, 0.3
    grid = make_grid(1.0, 100)
    ev = DeltaSession(expectation_square_drift(theta, kappa), x, grid,
                      20_000, SEED,
                      PicardConfig(tolerance=1e-5,
                                   max_iterations=60)).law_derivative()
    for s in (0.25, 0.5, 1.0):
        got = float(ev(s, np.array([0.0]))[0])
        want = expectation_square_law_derivative(theta, kappa, x, s)
        # bump bias O(h^2) plus CRN noise of the difference quotient
        assert abs(got - want) <= 5e-3, s


# (phi', d b / d m) per law moment m = E[phi(X)] of each model, by hand:
# kappa E[X] for OU and sign, sin(y) E[cos X] - cos(y) E[sin X] for the
# convolution
KAPPA = [(np.ones_like, lambda y: np.full_like(y, 0.5))]
LAW_PARTIALS = {
    "ou": (mean_field_ou, KAPPA),
    "sign": (sign_drift, KAPPA),
    "convolution": (convolution_drift, [(lambda y: -np.sin(y), np.sin),
                                        (np.cos, lambda y: -np.cos(y))]),
}


@pytest.mark.parametrize("model", list(LAW_PARTIALS))
def test_law_derivative_matches_a_pass_without_bumped_solves(model):
    # the bumped law derivative against forward substitution in one pass
    # under the flow at x, at every node k < M and at five states; the
    # tolerance is 4 SEs of the pass's mean plus h^2, the order of the
    # central difference's bias. Over seeds 3-47 the gap read at most
    # 3.7 SEs (sign), and a negated law derivative, or one divided by h
    # instead of 2h, missed it by at least 1.0 and 0.5 (at node 0, g = 1)
    builder, partials = LAW_PARTIALS[model]
    grid, seed = make_grid(1.0, 100), SeedSpec(11)
    session = DeltaSession(builder(), 1.0, grid, 10_000, seed)
    h, bumped = default_bump(1.0), session.law_derivative()
    g, se = forward_law_gradient(
        picard_solve(builder(), 1.0, grid, 10_000, seed), partials)
    ys = np.array([-1.0, 0.0, 0.5, math.pi / 2, 2.0])
    # d b / d m_i at the states, (moments, states)
    dmb = np.array([partial(ys) for _, partial in partials])
    want, tol = g @ dmb, 4.0 * se @ np.abs(dmb) + h * h

    def excess(dxb):
        """The largest amount by which dxb misses the pass at a node."""
        got = np.array([dxb(float(t), ys) for t in grid.nodes[:-1]])
        return float(np.max(np.abs(got - want) - tol))

    assert excess(bumped) <= 0.0
    assert excess(lambda s, y: -bumped(s, y)) > 0.25
    assert excess(lambda s, y: 2.0 * bumped(s, y)) > 0.25


def test_bel_accepts_supplied_law_derivative():
    # supplying the exact law derivative must agree with the bump route
    theta, kappa = 1.0, 0.5
    grid = make_grid(1.0, 100)
    exact = lambda s, y: np.full_like(y, kappa * math.exp((kappa - theta) * s))
    ra = DeltaSession(mean_field_ou(), 1.0, grid, 10_000, SEED,
                      dxb=exact).bel(identity_payoff())
    rb = DeltaSession(mean_field_ou(), 1.0, grid, 10_000, SEED).bel(
        identity_payoff())
    assert abs(ra.estimate - rb.estimate) <= 3 * (ra.stderr + rb.stderr)


@pytest.mark.parametrize("builder", [sign_drift, mean_field_ou],
                         ids=["sign", "ou"])
def test_delta_integrates_to_the_change_in_value(builder):
    # x -> E[payoff(X_T^x)] is differentiable (the paper's Sobolev
    # differentiability in x), so F(1.5) - F(0.5) is the integral of the
    # delta over [0.5, 1.5]: a check of BEL on the irregular model that
    # needs no closed form. The difference comes from two solves on one
    # draw at 0 with its paired SE; the integral is a 4-node Gauss-Legendre
    # sum of bel. The nodes share a draw, so their errors are correlated
    # and the sum's SE is bounded by sum |w_i| se_i. Tolerance: 3 of the
    # two SEs added, plus dt for the weak error of the Euler scheme (the
    # sqrt(dt) of criterion 07 is 0.1, above the OU gap with the law
    # feedback removed, 0.064). At seed 11 the gaps read 0.0011 (sign) and
    # 0.0024 (OU) against tolerances 0.025 and 0.020; removing the law
    # feedback moves them to 0.12 and 0.064, negating it to 0.25 and 0.13
    grid, n, seed = make_grid(1.0, 100), 20_000, SeedSpec(11)
    spec, payoff, (a, b) = builder(), call_payoff(1.0), (0.5, 1.5)
    draw = sample_brownian(grid, n, 0.0, seed)
    low, high = (payoff.fn(picard_solve(
        spec, x, grid, n, seed, brownian=_ShiftedDraw(draw, x)
    ).ensemble.terminal()) for x in (a, b))
    change, change_se = mean_and_se(high - low)
    nodes, weights = np.polynomial.legendre.leggauss(4)
    xs, ws = (a + b) / 2 + (b - a) / 2 * nodes, (b - a) / 2 * weights
    # each node's session solves at x once and reads the bumped law
    # derivative, scaled by 1, 0 (no law feedback) and -1 (negated)
    sums = {1.0: [0.0, 0.0], 0.0: [0.0, 0.0], -1.0: [0.0, 0.0]}
    for x, w in zip(xs, ws):
        law = DeltaSession(spec, x, grid, n, seed).law_derivative()
        scale = [1.0]
        session = DeltaSession(spec, x, grid, n, seed,
                               dxb=lambda s, y: scale[0] * law(s, y))
        for c, total in sums.items():
            scale[0] = c
            r = session.bel(payoff)
            total[0] += w * r.estimate
            total[1] += abs(w) * r.stderr
    for c, (integral, se) in sums.items():
        gap = abs(integral - change)
        tolerance = 3.0 * (change_se + se) + grid.dt
        assert (gap <= tolerance) == (c == 1.0), (c, gap, tolerance)


# ---------------------------------------------------------------------------
# delta session: solve counts and bit identity with one-shot sessions
# ---------------------------------------------------------------------------

@pytest.fixture
def counted(monkeypatch):
    """Count the solves and Brownian draws the sensitivity layer makes."""
    counts = {"solves": 0, "draws": 0}
    solve, draw = sensitivity.picard_solve, sensitivity.sample_brownian

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    def counted_draw(*args, **kwargs):
        counts["draws"] += 1
        return draw(*args, **kwargs)

    monkeypatch.setattr(sensitivity, "picard_solve", counted_solve)
    monkeypatch.setattr(sensitivity, "sample_brownian", counted_draw)
    return counts


def run_delta_command(tmp_path, **delta):
    payload = {
        "model": {"name": "sign", "alpha": 0.5, "theta": 1.0, "kappa": 0.5},
        "run": {"start": 1.0, "horizon": 1.0, "steps": 40,
                "particles": 2000, "seed": 31},
        "delta": {"payoff": "call", "strike": 1.0, **delta},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cli_main(["delta", "--config", str(path)]) == 0


def test_delta_command_solves_three_times_from_one_draw(tmp_path, counted,
                                                        capsys):
    # x for the weights and the first variation, x +/- h for the law
    # derivative; the finite difference reuses the same pair
    run_delta_command(tmp_path)
    assert counted == {"solves": 3, "draws": 1}


def test_distinct_bumps_add_one_pair_of_solves(tmp_path, counted, capsys):
    run_delta_command(tmp_path, fd_bump=0.015, law_bump=0.03)
    assert counted == {"solves": 5, "draws": 1}


def test_supplied_law_derivative_needs_one_solve(counted):
    exact = lambda s, y: np.full_like(y, 0.5 * math.exp(-0.5 * s))
    DeltaSession(mean_field_ou(), 1.0, make_grid(1.0, 20), 500, SEED,
                 dxb=exact).bel(identity_payoff())
    assert counted == {"solves": 1, "draws": 1}


def test_law_derivative_is_the_one_bel_reads(counted):
    # law_bump is the one source of the bump: law_derivative() is the
    # central difference at 0.05 that bel reads, from the solves at x and
    # x +/- 0.05 only
    spec, grid, n = convolution_drift(), make_grid(1.0, 40), 3000
    x, h = 1.0, 0.05
    payoff = call_payoff(1.0)
    session = DeltaSession(spec, x, grid, n, SEED, law_bump=h)
    got = session.bel(payoff)
    dxb = session.law_derivative()
    assert counted == {"solves": 3, "draws": 1}
    up, down = (picard_solve(spec, x + e, grid, n, SEED) for e in (h, -h))
    y = np.linspace(-2.0, 3.0, 11)
    for k in (0, 13, 40):
        t = float(grid.nodes[k])
        want = (spec.fn(t, y, spec.law(flow_of(up).atoms[k]))
                - spec.fn(t, y, spec.law(flow_of(down).atoms[k]))) / (2 * h)
        assert np.array_equal(dxb(t, y), want), k
    solve = picard_solve(spec, x, grid, n, SEED)
    terms = table_path_terms(spec, flow_of(solve), solve.brownian, dxb)
    assert (got.estimate, got.stderr) == table_bel(terms, grid, payoff,
                                                   uniform_weight(1.0))


def test_shifted_draw_is_the_draw_of_the_start():
    # the session builds every start's ensemble from one draw at 0
    grid = make_grid(1.0, 30)
    base = sample_brownian(grid, 5000, 0.0, SEED)
    for x in (1.0, -0.37, 1.02, 1e-9):
        direct = sample_brownian(grid, 5000, x, SEED)
        assert np.array_equal(direct.values, base.values + x), x


@pytest.mark.parametrize("spec, payoff", [
    (mean_field_ou(), square_payoff()),
    (sign_drift(), call_payoff(1.0)),
], ids=["ou", "sign"])
def test_session_estimators_match_one_shot_wrappers(spec, payoff):
    grid = make_grid(1.0, 40)
    n, x = 3000, 1.0
    front = front_loaded_weight(1.0)
    session = DeltaSession(spec, x, grid, n, SEED)

    def one_shot():
        # a fresh session for a single estimate
        return DeltaSession(spec, x, grid, n, SEED)

    pairs = [
        (session.bel(payoff), one_shot().bel(payoff)),
        (session.bel(payoff, front), one_shot().bel(payoff, front)),
        (session.pathwise(payoff), one_shot().pathwise(payoff)),
        (session.finite_difference(payoff),
         one_shot().finite_difference(payoff)),
        (session.finite_difference(payoff, h=5e-3),
         one_shot().finite_difference(payoff, h=5e-3)),
    ]
    for got, want in pairs:
        assert got.label == want.label
        assert (got.estimate, got.stderr) == (want.estimate, want.stderr)

    # and the bump difference equals the one from two independent solves
    h = default_bump(x)
    plus = picard_solve(spec, x + h, grid, n, SEED)
    minus = picard_solve(spec, x - h, grid, n, SEED)
    diff = (payoff.fn(plus.ensemble.terminal())
            - payoff.fn(minus.ensemble.terminal()))
    assert mean_and_se(diff / (2.0 * h)) == (pairs[3][0].estimate,
                                             pairs[3][0].stderr)


@pytest.mark.parametrize("spec", [mean_field_ou(), sign_drift()],
                         ids=["ou", "sign"])
def test_session_path_terms_are_the_localtime_and_girsanov_bits(spec):
    # the session's pathwise samples are those of the public routines:
    # the weights and the first variation of the solve at x
    grid = make_grid(1.0, 40)
    n, x = 3000, 1.0
    payoff = square_payoff()
    session = DeltaSession(spec, x, grid, n, SEED)
    solve = picard_solve(spec, x, grid, n, SEED)
    weights = doleans_weights(spec, solve.laws, solve.brownian)
    variation = first_variation(solve, session.law_derivative())
    want = mean_and_se(weights * payoff.derivative(solve.brownian.terminal())
                       * variation[-1])
    got = session.pathwise(payoff)
    assert (got.estimate, got.stderr) == want


@pytest.mark.parametrize("feedback", [True, False], ids=["law", "no-law"])
@pytest.mark.parametrize("spec", [mean_field_ou(), sign_drift(),
                                  convolution_drift()],
                         ids=["ou", "sign", "convolution"])
def test_session_pass_has_the_bits_of_the_table_route(spec, feedback):
    # the session's one pass over the nodes against the whole-table route
    # it replaced; without feedback the session reads no law derivative
    if not feedback:
        spec = replace(spec, law_lipschitz_const=0.0)
    grid = make_grid(1.0, 40)
    n, x = 3000, 1.0
    payoff = call_payoff(1.0)
    session = DeltaSession(spec, x, grid, n, SEED)
    solve = picard_solve(spec, x, grid, n, SEED)
    dxb = session.law_derivative() if feedback else None
    terms = table_path_terms(spec, flow_of(solve), solve.brownian, dxb)
    for weight in (uniform_weight(1.0), front_loaded_weight(1.0)):
        got = session.bel(payoff, weight)
        assert (got.estimate, got.stderr) == table_bel(terms, grid, payoff,
                                                       weight), weight.name
    got = session.pathwise(payoff)
    assert (got.estimate, got.stderr) == table_pathwise(terms, payoff)
    weights = doleans_weights(spec, solve.laws, solve.brownian)
    assert np.array_equal(weights.view(np.int64), terms[0].view(np.int64))
    assert np.array_equal(first_variation(solve, dxb).view(np.int64),
                          terms[2].view(np.int64))
    # a drive without the -b dt term is a different estimator
    broken = table_path_terms(spec, flow_of(solve), solve.brownian, dxb,
                              drift_in_drive=False)
    got = session.bel(payoff)
    assert (got.estimate, got.stderr) != table_bel(broken, grid, payoff,
                                                   uniform_weight(1.0))


@pytest.mark.parametrize("spec", [sign_drift(), mean_field_ou(),
                                  convolution_drift()],
                         ids=["sign", "ou", "convolution"])
def test_session_peak_memory_in_path_arrays(spec, counted):
    # the draw and the one buffer of the solve running: of the solves
    # before it the session keeps each node's law summary and
    # the terminal values only, so a flow kept for the law derivative, a
    # copy of the draw or a table of the drift, cumulants or variation
    # held alongside would show here. With a finite-difference bump apart
    # from the law bump, 5 solves run and the peak stays the same
    grid = make_grid(1.0, 200)
    n = 4096
    payoff = call_payoff(1.0)
    for fd_bump, solves in ((None, 3), (0.05, 5)):
        counted.update(solves=0, draws=0)
        tracemalloc.start()
        try:
            session = DeltaSession(spec, 1.0, grid, n, SEED)
            session.bel(payoff)
            session.pathwise(payoff)
            session.finite_difference(payoff, fd_bump)
            session.bel(payoff, front_loaded_weight(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del session
        assert counted == {"solves": solves, "draws": 1}
        arrays = peak / (8 * n * (grid.steps + 1))
        assert arrays <= 2.5, f"{solves} solves: peak {arrays:.2f} arrays"


def test_no_reader_takes_the_law_of_a_row_after_its_solve(monkeypatch):
    # the solves hand out the laws their sweeps took; the local-time
    # readers, the Girsanov weights and the session read those and call
    # spec.law on no row
    calls = {"inside": 0, "outside": 0}
    solving = []
    base = sign_drift()

    def law(atoms):
        calls["inside" if solving else "outside"] += 1
        return base.law(atoms)

    solve = sensitivity.picard_solve

    def spied_solve(*args, **kwargs):
        solving.append(True)
        try:
            return solve(*args, **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(sensitivity, "picard_solve", spied_solve)
    spec, grid = replace(base, law=law), make_grid(1.0, 30)
    result = spied_solve(spec, 1.0, grid, 1000, SEED)
    assert calls["outside"] == 0
    inside = calls["inside"]
    drift_cumulants(result)
    first_variation(result, lambda s, y: 0.1 * y)
    check_chain_identity(result, 5, 10, 20)
    # the weights and the drift along paths read the laws of the solve
    doleans_weights(spec, result.laws, result.brownian)
    reweighted_expectation(spec, result.laws, result.brownian, np.cos)
    drift_along_paths(spec, result.laws, result.brownian)
    for reader in (doleans_weights, drift_along_paths,
                   lambda *a: reweighted_expectation(*a, np.cos)):
        with pytest.raises(ValueError, match="node laws"):
            reader(spec, result.laws[:-1], result.brownian)
    session = DeltaSession(spec, 1.0, grid, 1000, SEED)
    session.bel(call_payoff(1.0))
    session.pathwise(call_payoff(1.0))
    session.finite_difference(call_payoff(1.0))
    # the session solved, and took its laws inside its solves only
    assert calls["inside"] > inside
    assert calls["outside"] == 0


def test_session_reads_a_user_drift_through_its_default_law(counted):
    # drifts written against the measure, on the default law: one reads
    # E[functional] as expectation_drift did before it declared a summary,
    # one the median of mu.atoms. Each runs through a solve, the session
    # and the regularity audit with the bits of its declared-summary twin
    bbar = lambda t, y, v: -y + 0.25 * v
    functional = np.cos
    by_hand = DriftSpec(
        name="expectation_by_hand", growth_const=1.0,
        law_lipschitz_const=0.25,
        fn=lambda t, y, mu: bbar(t, y, mu.expect(functional)))
    declared = expectation_drift(bbar, functional, growth_const=1.0,
                                 law_lipschitz_const=0.25)
    median = DriftSpec(
        name="median", growth_const=1.0, law_lipschitz_const=0.5,
        fn=lambda t, y, mu: -y + 0.5 * np.median(mu.atoms))
    median_declared = replace(median, fn=lambda t, y, m: -y + 0.5 * m,
                              law=lambda atoms: float(np.median(atoms)))
    assert by_hand.law is median.law is EmpiricalMeasure
    grid, n, x = make_grid(1.0, 40), 2000, 0.7
    payoff = call_payoff(0.5)
    for user, twin in ((by_hand, declared), (median, median_declared)):
        got = picard_solve(user, x, grid, n, SEED)
        want = picard_solve(twin, x, grid, n, SEED)
        assert np.array_equal(got.ensemble.values, want.ensemble.values)
        assert got.residual_history == want.residual_history
        bel_got = DeltaSession(user, x, grid, n, SEED).bel(payoff)
        bel_want = DeltaSession(twin, x, grid, n, SEED).bel(payoff)
        assert (bel_got.estimate, bel_got.stderr) == (bel_want.estimate,
                                                      bel_want.stderr)
        assert (check_regularity(user, samples=50, seed=3)
                == check_regularity(twin, samples=50, seed=3))
    # each session solved at x and x +/- h
    assert counted == {"solves": 4 * 3, "draws": 4}


def test_weight_overflow_fails_through_the_pass():
    # a constant drift c = 40 puts the weight exponent c B_T - c^2 T / 2
    # near -800, past the 700 guard, on almost every path
    session = DeltaSession(constant_drift(40.0), 1.0, make_grid(1.0, 50),
                           500, SEED)
    with pytest.raises(ExponentOverflowError):
        session.bel(call_payoff(1.0))
    with pytest.raises(ExponentOverflowError):
        session.pathwise(call_payoff(1.0))


def test_session_rejects_a_nonpositive_bump(counted):
    grid = make_grid(1.0, 10)
    session = DeltaSession(mean_field_ou(), 1.0, grid, 100, SEED)
    for bump in (math.nan, math.inf, -1e-3, 0.0):
        with pytest.raises(ValueError, match="bump h"):
            session.finite_difference(identity_payoff(), h=bump)
        # the law bump is checked when the session is built, before any
        # solve
        with pytest.raises(ValueError, match="bump law_bump"):
            DeltaSession(mean_field_ou(), 1.0, grid, 100, SEED,
                         law_bump=bump)
    assert counted == {"solves": 0, "draws": 0}


def test_session_rejects_a_bump_lost_to_rounding(counted):
    # at x = 1e20, x + h == x == x - h for h = 0.5: the bumped solves would
    # be the solve at x. At x = 2**53, h = 1 is lost upward only
    grid = make_grid(1.0, 10)
    for x, h in ((1e20, 0.5), (2.0 ** 53, 1.0)):
        session = DeltaSession(mean_field_ou(), x, grid, 100, SEED)
        with pytest.raises(ValueError, match="lost to rounding"):
            session.finite_difference(identity_payoff(), h=h)
        with pytest.raises(ValueError, match="bump law_bump"):
            DeltaSession(mean_field_ou(), x, grid, 100, SEED, law_bump=h)
    assert counted == {"solves": 0, "draws": 0}


# ---------------------------------------------------------------------------
# mollified drift convergence
# ---------------------------------------------------------------------------

def test_mollified_study_trend_on_irregular_model():
    grid = make_grid(1.0, 100)
    study = mollified_convergence_study(sign_drift(), 0.1, grid, 10_000,
                                        SEED, levels=(4, 16, 64))
    assert study.levels == (4, 16, 64)
    assert study.monotone_within_noise
    assert all(g >= 0 for g in study.mean_square_gap)
    # smoother drift, smaller gap at the coarsest vs finest level
    assert study.mean_square_gap[-1] <= study.mean_square_gap[0]
    assert all(w >= 0 for w in study.terminal_w1)


def test_mollified_study_draws_the_brownian_paths_once(monkeypatch):
    import mfsde.solver as solver
    draws = []
    draw = solver.sample_brownian

    def counted_draw(*args, **kwargs):
        draws.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(solver, "sample_brownian", counted_draw)
    study = mollified_convergence_study(sign_drift(), 0.1, make_grid(1.0, 20),
                                        500, SEED, levels=(4, 16, 64))
    assert len(study.mean_square_gap) == 3
    assert len(draws) == 1


def test_mollified_study_peak_memory_in_path_arrays():
    # the draw and the one buffer of the level solving, with the base's
    # terminal values and terminal law: a base result or a level's result
    # kept while the next level solves would show here
    grid, n = make_grid(1.0, 200), 4096
    tracemalloc.start()
    try:
        mollified_convergence_study(sign_drift(), 0.1, grid, n, SEED,
                                    levels=(4, 16, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * n * (grid.steps + 1))
    assert arrays < 2.5, f"peak {arrays:.2f} path arrays"


def test_mollified_study_requires_two_levels():
    grid = make_grid(1.0, 20)
    with pytest.raises(ValueError):
        mollified_convergence_study(sign_drift(), 0.0, grid, 100, SEED,
                                    levels=(8,))
