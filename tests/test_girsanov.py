import math

import numpy as np
import pytest

from mfsde import (MeasureFlow, PicardConfig, SeedSpec, constant_drift,
                   convolution_drift, dirac, doleans_weights,
                   epsilon_moment_probe, make_grid,
                   mean_and_se, mean_field_ou, picard_solve,
                   reweighted_expectation, sample_brownian, sign_drift,
                   zero_drift)
from mfsde.girsanov import drift_along_paths
from oracles import drift_table, gaussian_weight_moment, reference_solve

SEED = SeedSpec(2_718_281)


def constant_setup(c=0.8, steps=100, n=20_000):
    grid = make_grid(1.0, steps)
    paths = sample_brownian(grid, n, 0.0, SEED)
    flow = MeasureFlow.constant(grid, dirac(0.0))
    return grid, paths, flow


def test_weights_for_constant_drift_match_closed_form():
    # log w = c B_T - c^2 T / 2 exactly for a left-point scheme
    c = 0.8
    grid, paths, flow = constant_setup(c)
    w = doleans_weights(constant_drift(c), flow, paths)
    want = np.exp(c * (paths.terminal() - paths.values[0])
                  - 0.5 * c * c * grid.horizon)
    assert w.shape == (paths.n_paths,)
    assert np.allclose(w, want, rtol=1e-12)


def test_weight_moments_match_gaussian_identities():
    c = 0.8
    grid, paths, flow = constant_setup(c)
    w = doleans_weights(constant_drift(c), flow, paths)
    m, se = mean_and_se(w)
    assert abs(m - 1.0) <= 3 * se
    m2 = (w ** 2).mean()
    se2 = (w ** 2).std(ddof=1) / math.sqrt(w.size)
    assert abs(m2 - gaussian_weight_moment(c, 1.0, 2.0)) <= 3 * se2


def test_weights_mean_one_for_all_models():
    grid = make_grid(1.0, 80)
    paths = sample_brownian(grid, 20_000, 1.0, SEED)
    for builder in (zero_drift, lambda: constant_drift(0.5), mean_field_ou,
                    convolution_drift, sign_drift):
        spec = builder()
        # the flow the last Picard sweep ran under
        frozen = reference_solve(spec, 1.0, grid, 20_000, SEED,
                                 PicardConfig())[2]
        w = doleans_weights(spec, frozen, paths)
        m, se = mean_and_se(w)
        assert abs(m - 1.0) <= 3 * se + 1e-12, spec.name
        assert np.all(w > 0)


def test_zero_drift_weights_are_exactly_one():
    grid, paths, flow = constant_setup()
    w = doleans_weights(zero_drift(), flow, paths)
    assert np.array_equal(w, np.ones(paths.n_paths))


def test_reweighted_expectation_transports_the_mean():
    # E[w Phi(x + B_T)] = E[Phi(X_T)]; for constant drift X_T = x + cT + B_T
    c, x = 0.8, 0.0
    grid, paths, flow = constant_setup(c)
    r = reweighted_expectation(constant_drift(c), flow, paths, lambda y: y)
    assert abs(r.estimate - (x + c)) <= 3 * r.stderr
    assert "self_normalized" in r.extra
    assert abs(r.extra["self_normalized"] - r.estimate) <= 3 * r.stderr
    assert r.estimate - 3 * r.stderr < x + c < r.estimate + 3 * r.stderr


def test_reweighted_expectation_on_mean_field_model():
    # reweighting the raw Brownian ensemble reproduces the solved mean
    grid = make_grid(1.0, 100)
    x = 1.0
    spec = mean_field_ou()
    result = picard_solve(spec, x, grid, 20_000, SEED)
    frozen = reference_solve(spec, x, grid, 20_000, SEED, PicardConfig())[2]
    paths = sample_brownian(grid, 20_000, x, SEED.child(5))
    r = reweighted_expectation(spec, frozen, paths, lambda y: y)
    direct = result.ensemble.terminal().mean()
    assert abs(r.estimate - direct) <= 3 * (r.stderr + 0.01)


def test_epsilon_moment_probe_matches_oracle():
    c = 0.8
    grid, paths, flow = constant_setup(c)
    w = doleans_weights(constant_drift(c), flow, paths)
    probe = epsilon_moment_probe(w, eps=0.5)
    want = gaussian_weight_moment(c, 1.0, 1.5)
    assert abs(probe.estimate - want) <= 3 * probe.stderr


def test_doleans_weights_demand_brownian_paths():
    grid = make_grid(1.0, 20)
    result = picard_solve(mean_field_ou(), 1.0, grid, 100, SEED)
    with pytest.raises(ValueError):
        doleans_weights(mean_field_ou(), result.flow, result.ensemble)


def test_drift_along_paths_shape_and_values():
    grid, paths, flow = constant_setup(c=0.3, n=50)
    vals = drift_table(constant_drift(0.3), flow, paths)
    assert vals.shape == paths.values.shape
    assert np.all(vals == 0.3)
    # the unexported package table has the oracle's bits on a model that
    # reads the law
    result = picard_solve(sign_drift(), 1.0, make_grid(1.0, 30), 500, SEED)
    want = drift_table(result.spec, result.flow, result.brownian)
    got = drift_along_paths(result.spec, result.flow, result.brownian)
    assert np.array_equal(got, want)
