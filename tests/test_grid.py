import tracemalloc

import numpy as np
import pytest

from mfsde import BLOCK_SIZE, PathEnsemble, SeedSpec, TimeGrid, make_grid, sample_brownian
from mfsde.grid import chunk_rows
from oracles import particle_major_brownian


def test_grid_nodes_and_dt():
    grid = make_grid(2.0, 8)
    assert grid.dt == pytest.approx(0.25)
    assert grid.nodes.shape == (9,)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == pytest.approx(2.0)
    assert np.allclose(np.diff(grid.nodes), grid.dt)


def test_grid_nodes_read_only():
    grid = make_grid(1.0, 4)
    with pytest.raises(ValueError):
        grid.nodes[0] = 5.0


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_grid(0.0, 10)
    with pytest.raises(ValueError):
        make_grid(-1.0, 10)
    with pytest.raises(ValueError):
        make_grid(1.0, 0)


def test_index_of_snaps_to_nearest_node():
    grid = make_grid(1.0, 10)
    assert grid.index_of(0.0) == 0
    assert grid.index_of(1.0) == 10
    assert grid.index_of(0.31) == 3
    assert grid.index_of(0.349) == 3
    assert grid.index_of(0.351) == 4
    with pytest.raises(ValueError):
        grid.index_of(1.2)
    with pytest.raises(ValueError):
        grid.index_of(-0.1)


def test_seed_spec_key_separates_seed_and_stream():
    assert SeedSpec(1, 0)._key() != SeedSpec(0, 1)._key()
    assert SeedSpec(5, 2)._key() == SeedSpec(5, 2)._key()
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(2**64)


def test_seed_child_streams_are_distinct():
    base = SeedSpec(123)
    a, b = base.child(1), base.child(2)
    assert a != b
    grid = make_grid(1.0, 16)
    pa = sample_brownian(grid, 64, 0.0, a)
    pb = sample_brownian(grid, 64, 0.0, b)
    assert not np.array_equal(pa.values, pb.values)


def test_brownian_reproducible_for_fixed_seed():
    grid = make_grid(1.0, 32)
    a = sample_brownian(grid, 500, 0.5, SeedSpec(42))
    b = sample_brownian(grid, 500, 0.5, SeedSpec(42))
    assert np.array_equal(a.values, b.values)
    c = sample_brownian(grid, 500, 0.5, SeedSpec(43))
    assert not np.array_equal(a.values, c.values)


def test_brownian_prefix_stable_when_growing_n():
    # enlarging the ensemble must not change the paths already drawn
    grid = make_grid(1.0, 10)
    big = sample_brownian(grid, 3 * BLOCK_SIZE + 17, 0.0, SeedSpec(3))
    for n in (3000, 2 * BLOCK_SIZE + 100):
        small = sample_brownian(grid, n, 0.0, SeedSpec(3))
        assert np.array_equal(big.values[:, :n], small.values)


def test_chunked_draw_is_the_one_call_block_bit_for_bit():
    # at 1000 steps a full block splits into 262-particle chunks with a
    # ragged last one, and the tail block into several chunks of its own;
    # the oracle draws each block in one call at BLOCK_SIZE rows
    grid, n = make_grid(1.0, 1000), 5000
    rows = chunk_rows(grid.steps)
    assert BLOCK_SIZE % rows and n - BLOCK_SIZE > rows
    paths = sample_brownian(grid, n, 0.3, SeedSpec(7))
    want = particle_major_brownian(grid, n, 0.3, SeedSpec(7), BLOCK_SIZE)
    assert np.array_equal(paths.values, want.T)


def test_draw_holds_one_chunk_beside_its_output():
    # a whole block of normals held while it is transposed would read 2
    grid, n = make_grid(1.0, 1600), 4000
    tracemalloc.start()
    try:
        sample_brownian(grid, n, 1.0, SeedSpec(11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * n * (grid.steps + 1))
    assert arrays < 1.2, f"peak {arrays:.2f} path arrays"


def test_brownian_statistics():
    grid = make_grid(1.0, 50)
    paths = sample_brownian(grid, 20_000, 0.0, SeedSpec(2024))
    inc = paths.increments()
    assert inc.shape == (50, 20_000)
    # increment mean 0 and variance dt, loose 4-sigma style bounds
    assert abs(inc.mean()) < 4.0 / np.sqrt(inc.size)
    assert inc.var() == pytest.approx(grid.dt, rel=0.02)
    # quadratic variation concentrates at the horizon
    qv = (inc ** 2).sum(axis=0)
    assert qv.mean() == pytest.approx(1.0, rel=0.01)
    # terminal law is N(start, T)
    xt = paths.terminal()
    assert abs(xt.mean()) < 4.0 / np.sqrt(xt.size)
    assert xt.var() == pytest.approx(1.0, rel=0.05)


def test_brownian_start_offset():
    grid = make_grid(1.0, 5)
    paths = sample_brownian(grid, 10, -2.5, SeedSpec(0))
    assert np.all(paths.values[0] == -2.5)
    assert paths.start == -2.5
    assert paths.kind == "brownian"
    assert paths.n_paths == 10


def test_path_ensemble_validation():
    grid = make_grid(1.0, 4)
    good = np.zeros((5, 3))
    with pytest.raises(ValueError):
        PathEnsemble(grid, np.zeros((4, 3)), "brownian", 0.0)
    with pytest.raises(ValueError):
        PathEnsemble(grid, good, "weird", 0.0)
    # one non-finite value in an interior row, among finite paths
    for value in (np.nan, np.inf, -np.inf):
        bad = sample_brownian(grid, 3, 0.0, SeedSpec(1)).values.copy()
        bad[2, 1] = value
        with pytest.raises(ValueError, match="finite"):
            PathEnsemble(grid, bad, "brownian", 0.0)


def test_path_values_read_only():
    grid = make_grid(1.0, 4)
    paths = sample_brownian(grid, 8, 0.0, SeedSpec(1))
    with pytest.raises(ValueError):
        paths.values[0, 0] = 99.0
