from dataclasses import replace

import numpy as np
import pytest

from mfsde import (EmpiricalMeasure, StepFunction, check_regularity,
                   constant_drift, convolution_drift, dirac, eval_drift,
                   expectation_drift, expectation_square_drift,
                   mean_field_ou, mollify, sign_drift, zero_drift)
from mfsde.cli import parse_config
from mfsde.drift import _bump_nodes

ALL_BUILDERS = [zero_drift, lambda: constant_drift(1.0), mean_field_ou,
                convolution_drift, sign_drift]


def cloud(seed=0, n=200, loc=0.0, scale=1.0):
    rng = np.random.default_rng(seed)
    return EmpiricalMeasure(rng.normal(loc, scale, n))


def law_of(spec, mu):
    """What the evaluators of spec read of mu: its declared summary."""
    return spec.law(mu.atoms)


def test_zero_and_constant_drift_values():
    mu = cloud()
    y = np.linspace(-3, 3, 7)
    for spec, want in ((zero_drift(), np.zeros(7)),
                       (constant_drift(2.5), np.full(7, 2.5))):
        assert law_of(spec, mu) is None
        assert np.array_equal(spec.fn(0.3, y, law_of(spec, mu)), want)


def test_mean_field_ou_values():
    spec = mean_field_ou(theta=1.0, kappa=0.5)
    mu = EmpiricalMeasure(np.array([1.0, 3.0]))  # mean 2
    y = np.array([0.0, 1.0, -2.0])
    assert law_of(spec, mu) == mu.mean() == 2.0
    assert np.allclose(spec.fn(0.0, y, law_of(spec, mu)), -y + 0.5 * 2.0)


def test_sign_drift_values_and_decomposition():
    spec = sign_drift(alpha=0.5, theta=1.0, kappa=0.5)
    mu = dirac(2.0)
    y = np.array([-1.0, 0.0, 3.0])
    want = 0.5 * np.sign(y) - y + 0.5 * 2.0
    law = law_of(spec, mu)
    assert np.allclose(spec.fn(0.2, y, law), want)
    assert spec.decomposed
    bounded, lipschitz = spec.bounded_part, spec.lipschitz_part
    assert np.allclose(bounded(0.2, y, law) + lipschitz(0.2, y, law), want)
    assert np.max(np.abs(bounded(0.2, np.linspace(-50, 50, 101), law))) \
        <= 0.5
    assert spec.bounded_sup == 0.5


def test_convolution_drift_matches_direct_sum():
    # separable evaluation must equal the brute-force kernel average
    spec = convolution_drift()
    mu = cloud(3, n=40)
    y = np.linspace(-2, 2, 9)
    direct = np.array([np.mean(np.sin(v - mu.atoms)) for v in y])
    assert np.allclose(spec.fn(0.0, y, law_of(spec, mu)), direct, atol=1e-12)


def test_drift_broadcasting_scalar_and_array():
    for builder in ALL_BUILDERS:
        spec = builder()
        law = law_of(spec, cloud(1))
        out = eval_drift(spec, 0.1, np.array([0.5]), law)
        assert out.shape == (1,)
        out2 = eval_drift(spec, 0.1, np.linspace(-1, 1, 11), law)
        assert out2.shape == (11,)
        assert np.all(np.isfinite(out2))


def test_eval_drift_rejects_nonfinite_output():
    bad = expectation_drift(
        bbar=lambda t, y, v: y * np.inf,
        functional=lambda z: z,
        growth_const=1.0, law_lipschitz_const=1.0, name="bad")
    with pytest.raises(FloatingPointError):
        eval_drift(bad, 0.0, np.array([1.0]), law_of(bad, cloud()))


def test_declared_constants_hold_on_samples():
    for builder in ALL_BUILDERS:
        spec = builder()
        report = check_regularity(spec, samples=150, seed=99)
        assert report.all_ok, (spec.name, report)


def test_check_regularity_catches_lying_constants():
    liar = expectation_drift(
        bbar=lambda t, y, v: 10.0 * y,
        functional=lambda z: z,
        growth_const=0.5,  # declared far below the true growth
        law_lipschitz_const=1.0, name="liar")
    report = check_regularity(liar, samples=100, seed=1)
    assert not report.growth_ok
    assert not report.all_ok


def test_check_regularity_catches_a_lying_bounded_sup():
    honest = sign_drift(alpha=0.5)
    assert check_regularity(honest, samples=100, seed=1).bounded_sup_ok
    liar = replace(honest, bounded_sup=0.1)  # |0.5 sign(y)| reaches 0.5
    report = check_regularity(liar, samples=100, seed=1)
    assert report.growth_ok and report.law_lipschitz_ok
    assert not report.bounded_sup_ok
    assert not report.all_ok


def test_law_lipschitz_translation_bound():
    # |b(mu) - b(nu)| <= C * W1 checked on exact translates
    spec = mean_field_ou(theta=1.0, kappa=0.5)
    mu = cloud(7)
    nu = EmpiricalMeasure(mu.atoms + 0.3)
    y = np.linspace(-2, 2, 5)
    gap = np.max(np.abs(spec.fn(0.5, y, law_of(spec, mu))
                        - spec.fn(0.5, y, law_of(spec, nu))))
    assert gap <= spec.law_lipschitz_const * 0.3 + 1e-12


def test_mollify_preserves_bound_and_symmetry():
    spec = sign_drift(alpha=0.5)
    for n in (4, 16, 64):
        smooth = mollify(spec, n)
        bounded = smooth.bounded_part
        mu = dirac(0.0)
        y = np.linspace(-3, 3, 2001)
        vals = bounded(0.0, y, mu)
        # convex averaging cannot enlarge the sup norm
        assert np.max(np.abs(vals)) <= 0.5 + 1e-12
        # smoothing an odd function stays odd
        assert np.allclose(vals, -bounded(0.0, -y, mu)[:], atol=1e-12)
        # away from the kink the smoothing is inactive
        far = np.array([-2.0, -1.0, 1.0, 2.0])
        assert np.allclose(bounded(0.0, far, mu), 0.5 * np.sign(far),
                           atol=1e-12)


def test_mollify_l1_error_shrinks_like_support():
    from oracles import mollified_sign_l1_gap
    spec = sign_drift(alpha=0.5)
    mu = dirac(0.0)
    gaps = []
    for n in (4, 16, 64):
        bounded = mollify(spec, n).bounded_part
        gap = mollified_sign_l1_gap(lambda z: bounded(0.0, z, mu), 0.5, n)
        assert gap <= 2.0 * 0.5 / n
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_mollify_keeps_declared_constants_valid():
    smooth = mollify(sign_drift(alpha=0.5), 16)
    assert "16" in smooth.name
    report = check_regularity(smooth, samples=120, seed=4)
    assert report.all_ok


def test_mollify_leaves_lipschitz_part_alone():
    spec = sign_drift(alpha=0.5, theta=1.0, kappa=0.5)
    smooth = mollify(spec, 8)
    assert smooth.law is spec.law
    law = law_of(spec, dirac(1.0))
    y = np.linspace(-2, 2, 9)
    lip, lip_smooth = spec.lipschitz_part, smooth.lipschitz_part
    assert np.allclose(lip(0.1, y, law), lip_smooth(0.1, y, law))


def _heaviside_sum(left, breakpoints, jumps):
    """Plain-lambda reference for a step function, H(0) = 1/2."""
    return lambda t, y, mu: left + sum(
        c * np.heaviside(y - a, 0.5) for a, c in zip(breakpoints, jumps))


def _right_continuous(step):
    """The step function with H(0) = 1: a breakpoint takes the right value."""
    order = np.argsort(step.breakpoints, kind="stable")
    a = np.asarray(step.breakpoints)[order]
    cumulative = np.concatenate(
        [[0.0], np.cumsum(np.asarray(step.jumps)[order])])
    return lambda t, y, mu: (
        step.left + cumulative[np.searchsorted(a, y, side="right")])


TWO_STEPS = (0.2, (-0.37, 1.1), (0.8, -1.3))

# (spec whose bounded part is a StepFunction, plain-lambda reference for it,
#  |left| + sum |jumps|)
STEP_CASES = [
    *[(sign_drift(alpha), lambda t, y, mu, a=alpha: a * np.sign(y),
       3.0 * alpha) for alpha in (0.3, 0.5, 1.7)],
    (constant_drift(1.3), lambda t, y, mu: np.full_like(y, 1.3), 1.3),
    (zero_drift(), lambda t, y, mu: np.zeros_like(y), 0.0),
    (replace(sign_drift(), bounded_part=StepFunction(*TWO_STEPS)),
     _heaviside_sum(*TWO_STEPS), 2.3),
]


def _probe_points(n, seed):
    offsets = _bump_nodes()[0] / n
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(-3.0, 3.0, 500),
                           rng.uniform(-2.0 / n, 2.0 / n, 500),
                           [0.0, 1.0 / n, -1.0 / n], offsets, -offsets])


@pytest.mark.parametrize("case", range(len(STEP_CASES)))
def test_closed_form_mollify_matches_the_translate_sum(case):
    spec, reference, scale = STEP_CASES[case]
    plain = replace(spec, bounded_part=reference)
    mu = dirac(0.0)
    tol = 1e-14 * scale
    for n in (1, 4, 16, 64, 256):
        closed = mollify(spec, n).bounded_part
        translates = mollify(plain, n).bounded_part
        assert isinstance(closed, StepFunction)
        assert not isinstance(translates, StepFunction)
        y = _probe_points(n, seed=n)
        assert np.max(np.abs(closed(0.0, y, mu) - translates(0.0, y, mu))) \
            <= tol, (spec.name, n)


def test_a_breakpoint_taking_the_right_value_fails_the_reference():
    # H(0) = 1 instead of 1/2: agrees off the kernel offsets, not on them
    alpha, n = 0.5, 16
    plain = replace(sign_drift(alpha),
                    bounded_part=lambda t, y, mu: alpha * np.sign(y))
    closed = mollify(sign_drift(alpha), n).bounded_part
    broken = _right_continuous(closed)
    translates = mollify(plain, n).bounded_part
    mu = dirac(0.0)
    tol = 1e-14 * 3.0 * alpha
    y = np.random.default_rng(0).uniform(-1.0, 1.0, 1000)
    assert np.max(np.abs(broken(0.0, y, mu) - translates(0.0, y, mu))) <= tol
    nodes, weights = _bump_nodes()
    offsets = nodes / n
    gap = np.abs(broken(0.0, offsets, mu) - translates(0.0, offsets, mu))
    # the gap is alpha w_j; the two outermost weights are below rounding
    visible = weights > 1e-12
    assert visible.sum() == 62
    assert np.all(gap[visible] > tol)


def test_mollifying_a_step_function_twice_composes():
    spec = replace(sign_drift(), bounded_part=StepFunction(*TWO_STEPS))
    plain = replace(spec, bounded_part=_heaviside_sum(*TWO_STEPS))
    closed = mollify(mollify(spec, 4), 16).bounded_part
    assert isinstance(closed, StepFunction)
    assert len(closed.breakpoints) == 2 * 64 * 64
    translates = mollify(mollify(plain, 4), 16).bounded_part
    # the reference evaluates 64 x 64 translates per point: few points
    y = np.concatenate([np.random.default_rng(3).uniform(-2.0, 2.0, 200),
                        _bump_nodes()[0] / 16])
    mu = dirac(0.0)
    assert np.max(np.abs(closed(0.0, y, mu) - translates(0.0, y, mu))) \
        <= 1e-14 * 2.3


def test_sign_bounded_part_is_alpha_sign_bit_for_bit():
    y = np.concatenate([np.random.default_rng(5).normal(size=1000),
                        [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]])
    for alpha in (0.3, 0.5, 1.7, -0.9):
        got = sign_drift(alpha).bounded_part(0.4, y, dirac(1.0))
        assert np.array_equal(got, alpha * np.sign(y))
    assert np.array_equal(constant_drift(2.5).bounded_part(0.0, y, None),
                          np.full_like(y, 2.5))
    assert np.array_equal(zero_drift().bounded_part(0.0, y, None),
                          np.zeros_like(y))


ONE_SEARCH_CASES = {
    "sign": sign_drift().bounded_part,
    "constant": constant_drift(1.3).bounded_part,
    "mollified_sign_4": mollify(sign_drift(), 4).bounded_part,
    "mollified_sign_256": mollify(sign_drift(), 256).bounded_part,
    # unsorted, with -0.37 and 1.1 each twice
    "unsorted_repeated": StepFunction(
        0.2, (1.1, -0.37, 0.0, 1.1, -0.37), (0.8, -1.3, 0.5, 0.25, 0.4)),
}


@pytest.mark.parametrize("name", ONE_SEARCH_CASES)
def test_one_search_step_function_has_the_bits_of_two_searches(name):
    from oracles import two_search_step
    step = ONE_SEARCH_CASES[name]
    rng = np.random.default_rng(17)
    y = np.concatenate([rng.normal(size=100_000), step.breakpoints,
                        [0.0, -0.0]])
    rng.shuffle(y)
    for points in (y, y.reshape(-1, 1), y[:6].reshape(2, 3)):
        got = step(0.3, points, None)
        want = two_search_step(step, points)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for scalar in (*step.breakpoints[:3], 0.0, -0.0, 0.7):
        got = np.asarray(step(0.3, scalar, None))
        want = np.asarray(two_search_step(step, scalar))
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), scalar


def test_step_function_rejects_bad_input():
    with pytest.raises(ValueError):
        StepFunction(0.0, (0.0, 1.0), (1.0,))
    for bad in ((np.nan, (), ()), (0.0, (np.inf,), (1.0,)),
                (0.0, (0.0,), (np.nan,)), (np.inf, (0.0,), (1.0,))):
        with pytest.raises(ValueError):
            StepFunction(*bad)


def test_mollify_rejects_bad_level_and_undeclared_split():
    with pytest.raises(ValueError):
        mollify(sign_drift(), 0)
    plain = expectation_drift(
        bbar=lambda t, y, v: -y + v, functional=lambda z: z,
        growth_const=1.0, law_lipschitz_const=1.0, name="plain")
    with pytest.raises(ValueError):
        mollify(plain, 4)  # no declared bounded/Lipschitz split to smooth


def test_expectation_square_model_is_built_once():
    # the library builder, the CLI model and the formula agree bit for bit
    theta, kappa = 0.8, 0.3
    spec = expectation_square_drift(theta, kappa)
    cli_spec = parse_config({"model": {"name": "expectation_square",
                                       "theta": theta, "kappa": kappa}}
                            ).build_drift()
    mu = cloud(seed=4)
    y = np.linspace(-3, 3, 13)
    want = -theta * y + kappa * float(np.mean(mu.atoms * mu.atoms))
    assert np.array_equal(spec.fn(0.2, y, law_of(spec, mu)), want)
    assert np.array_equal(cli_spec.fn(0.2, y, law_of(cli_spec, mu)), want)
    assert (spec.name, spec.growth_const, spec.law_lipschitz_const) == (
        cli_spec.name, cli_spec.growth_const, cli_spec.law_lipschitz_const)
