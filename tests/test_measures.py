import numpy as np
import pytest
from scipy import stats

from mfsde import (EmpiricalMeasure, MeasureFlow, SeedSpec, dirac,
                   flow_distance, kantorovich, make_grid, sample_brownian)
from oracles import dual_w1


def test_empirical_measure_basics():
    mu = EmpiricalMeasure(np.array([3.0, -1.0, 2.0]))
    assert np.array_equal(mu.atoms, [-1.0, 2.0, 3.0])
    assert mu.size == 3
    assert mu.mean() == pytest.approx(4.0 / 3.0)
    assert mu.expect(lambda z: z ** 2) == pytest.approx(14.0 / 3.0)


def test_empirical_measure_rejects_bad_atoms():
    # ascending input is judged by its ends, anything else once sorted
    for atoms in ([1.0, np.nan], [-np.inf, 0.0], [0.0, np.inf],
                  [0.0, np.nan, 1.0], [1.0, np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalMeasure(np.array(atoms))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([[1.0, 2.0]]))


def test_ascending_atoms_are_a_read_only_view_of_the_input():
    xs = np.array([-1.0, 0.0, 0.0, 2.5])
    mu = EmpiricalMeasure(xs)
    assert np.shares_memory(mu.atoms, xs)
    assert not mu.atoms.flags.writeable
    # the caller's array is not frozen
    assert xs.flags.writeable
    ys = np.array([2.5, -1.0, 0.0])
    nu = EmpiricalMeasure(ys)
    assert np.array_equal(nu.atoms, [-1.0, 0.0, 2.5])
    assert not np.shares_memory(nu.atoms, ys)
    assert np.array_equal(ys, [2.5, -1.0, 0.0])


def test_dirac():
    mu = dirac(1.5)
    assert mu.size == 1
    assert mu.mean() == 1.5
    assert kantorovich(mu, dirac(-0.5)) == pytest.approx(2.0)


def test_kantorovich_exact_small_cases():
    # hand-checkable: mass 1/2 at 0 and 1 vs unit mass at 1/2
    mu = EmpiricalMeasure(np.array([0.0, 1.0]))
    nu = dirac(0.5)
    assert kantorovich(mu, nu) == pytest.approx(0.5)
    # equal-size pairing: mean absolute gap of sorted samples
    a = EmpiricalMeasure(np.array([0.0, 1.0, 2.0]))
    b = EmpiricalMeasure(np.array([0.5, 1.0, 4.0]))
    assert kantorovich(a, b) == pytest.approx((0.5 + 0.0 + 2.0) / 3.0)


def test_kantorovich_translation_is_exact():
    rng = np.random.default_rng(11)
    xs = rng.normal(size=257)
    mu = EmpiricalMeasure(xs)
    nu = EmpiricalMeasure(xs + 0.73)
    assert kantorovich(mu, nu) == pytest.approx(0.73, abs=1e-12)


def test_kantorovich_matches_independent_implementations():
    rng = np.random.default_rng(5)
    for nx, ny in [(64, 64), (100, 37), (13, 400), (1, 50)]:
        xs = rng.normal(0.2, 1.0, nx)
        ys = rng.normal(-0.1, 1.7, ny)
        got = kantorovich(EmpiricalMeasure(xs), EmpiricalMeasure(ys))
        assert got == pytest.approx(stats.wasserstein_distance(xs, ys),
                                    abs=1e-12)
        assert got == pytest.approx(dual_w1(xs, ys), abs=1e-12)


def test_kantorovich_dominates_lipschitz_gaps():
    # |E_mu f - E_nu f| <= W1 for every 1-Lipschitz f
    rng = np.random.default_rng(17)
    xs, ys = rng.normal(size=80), rng.normal(0.5, 2.0, 90)
    mu, nu = EmpiricalMeasure(xs), EmpiricalMeasure(ys)
    w1 = kantorovich(mu, nu)
    tests = [np.abs, lambda z: z, lambda z: np.minimum(z, 0.3),
             lambda z: np.sin(z), lambda z: np.clip(z, -1, 1)]
    for f in tests:
        gap = abs(mu.expect(f) - nu.expect(f))
        assert gap <= w1 + 1e-12


def test_kantorovich_metric_properties():
    rng = np.random.default_rng(23)
    xs, ys, zs = (rng.normal(loc, 1.0, 60) for loc in (0.0, 0.4, -0.7))
    mu, nu, rho = map(EmpiricalMeasure, (xs, ys, zs))
    assert kantorovich(mu, mu) == 0.0
    assert kantorovich(mu, nu) == pytest.approx(kantorovich(nu, mu))
    assert (kantorovich(mu, rho)
            <= kantorovich(mu, nu) + kantorovich(nu, rho) + 1e-12)


def test_measure_flow_from_ensemble():
    grid = make_grid(1.0, 6)
    paths = sample_brownian(grid, 512, 0.25, SeedSpec(8))
    flow = MeasureFlow.from_ensemble(paths)
    assert flow.atoms.shape == (7, 512)
    assert len(flow) == 7
    assert flow[0].size == 512
    assert flow[0].mean() == pytest.approx(0.25)
    # every row is the sorted column of the ensemble, bit for bit
    for k in range(7):
        assert (flow.atoms[k].view(np.int64)
                == np.sort(paths.values[k]).view(np.int64)).all()
    assert np.array_equal(flow.means(),
                          [flow[k].mean() for k in range(7)])
    mu3 = EmpiricalMeasure(paths.values[3])
    assert kantorovich(mu3, flow[3]) == 0.0
    # node access is a read-only view into the one array
    assert not flow.atoms.flags.writeable
    for k in (0, 3, 6):
        assert np.shares_memory(flow[k].atoms, flow.atoms)
        assert not flow[k].atoms.flags.writeable


def test_measure_flow_rejects_a_misshapen_array():
    grid = make_grid(1.0, 4)
    with pytest.raises(ValueError, match="flow needs"):
        MeasureFlow(grid, atoms=np.zeros((4, 3)))
    with pytest.raises(ValueError, match="flow needs"):
        MeasureFlow(grid, atoms=np.zeros(5))
    with pytest.raises(ValueError, match="flow needs"):
        MeasureFlow(grid, atoms=np.zeros((5, 0)))


def test_measure_flow_rejects_unsorted_and_non_finite_rows():
    g = make_grid(1.0, 1)
    # the same law at both nodes, but the first flow's node 1 is unsorted,
    # so its sup-W1 against the second would read 1.0 instead of 0
    with pytest.raises(ValueError, match="node 1"):
        flow_distance(MeasureFlow(g, [[0, 1], [1, 0]]),
                      MeasureFlow(g, [[0, 1], [0, 1]]))
    with pytest.raises(ValueError, match="node 0"):
        MeasureFlow(g, [[0.0, np.nan, 1.0], [0.0, 0.5, 1.0]])
    with pytest.raises(ValueError, match="node 1"):
        MeasureFlow(g, [[0.0, 1.0], [0.0, np.inf]])
    assert flow_distance(MeasureFlow(g, [[0, 1], [0, 1]]),
                         MeasureFlow(g, [[0, 1], [0, 1]])) == 0.0


def test_constant_flow_and_flow_distance():
    grid = make_grid(1.0, 4)
    mu = EmpiricalMeasure(np.array([-1.0, 0.5, 2.0]))
    flow = MeasureFlow.constant(grid, mu)
    # a constant flow is a view of the one measure, not a copy
    assert flow.atoms.shape == (5, 3)
    assert np.shares_memory(flow.atoms, mu.atoms)
    assert all(np.array_equal(flow[k].atoms, mu.atoms) for k in range(5))
    base = MeasureFlow.constant(grid, dirac(0.0))
    other = MeasureFlow(grid, atoms=np.array([[0.0], [0.0], [0.0], [0.4],
                                              [0.1]]))
    # sup over nodes picks the worst node
    assert flow_distance(base, other) == pytest.approx(0.4)
    assert flow_distance(base, base) == 0.0


def test_flow_distance_is_the_worst_node_kantorovich():
    grid = make_grid(1.0, 8)
    a = MeasureFlow.from_ensemble(sample_brownian(grid, 300, 0.0, SeedSpec(3)))
    b = MeasureFlow.from_ensemble(sample_brownian(grid, 300, 0.2, SeedSpec(4)))
    # equal atom counts, and an ensemble against a one-atom Dirac flow
    for other in (b, MeasureFlow.constant(grid, dirac(0.3))):
        want = max(kantorovich(a[k], other[k]) for k in range(9))
        assert flow_distance(a, other) == want
        assert flow_distance(other, a) == want


def test_flow_distance_requires_same_grid():
    a = MeasureFlow.constant(make_grid(1.0, 4), dirac(0.0))
    b = MeasureFlow.constant(make_grid(1.0, 5), dirac(0.0))
    with pytest.raises(ValueError):
        flow_distance(a, b)


def test_flow_time_continuity_of_brownian_law():
    # W1 between consecutive Brownian marginals is O(sqrt(dt))
    grid = make_grid(1.0, 25)
    paths = sample_brownian(grid, 30_000, 0.0, SeedSpec(77))
    flow = MeasureFlow.from_ensemble(paths)
    gaps = [kantorovich(flow[k], flow[k + 1]) for k in range(25)]
    bound = 3.0 * np.sqrt(grid.dt)
    assert max(gaps) <= bound
