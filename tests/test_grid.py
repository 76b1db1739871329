import hashlib
import json
import threading
import tracemalloc

import numpy as np
import pytest

import mfsde.grid as grid_module
from mfsde import BLOCK_SIZE, PathEnsemble, SeedSpec, TimeGrid, make_grid, sample_brownian
from mfsde.cli import main as cli_main
from mfsde.grid import _ShiftedDraw, chunk_rows
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


@pytest.mark.parametrize("seed, stream, match", [
    (-1, 0, "seed must be >= 0"), (2**64, 0, "seed must be <="),
    (1, -1, "stream must be >= 0"), (1, 2**64, "stream must be <="),
])
def test_seed_spec_refuses_values_outside_64_bits(seed, stream, match):
    with pytest.raises(ValueError, match=match):
        SeedSpec(seed, stream=stream)


@pytest.mark.parametrize("field", ["seed", "stream"])
@pytest.mark.parametrize("value", [1.5, 2.0, True, float("nan"), "3"],
                         ids=["fraction", "whole-float", "bool", "nan", "str"])
def test_seed_spec_refuses_a_value_that_is_not_an_integer(field, value):
    # refused where it is made, not later inside a draw's Philox key
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        SeedSpec(**{"seed": 1, field: value})


def test_seed_spec_takes_a_numpy_integer_as_the_int():
    spec = SeedSpec(np.uint64(2**64 - 1), stream=np.int64(3))
    assert spec == SeedSpec(2**64 - 1, 3)
    assert type(spec.seed) is int and type(spec.stream) is int
    assert spec._key() == SeedSpec(2**64 - 1, 3)._key()


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
        PathEnsemble(grid, np.zeros((4, 3)), "brownian")
    with pytest.raises(ValueError):
        PathEnsemble(grid, good, "weird")
    # one non-finite value in an interior row, among finite paths
    for value in (np.nan, np.inf, -np.inf):
        bad = sample_brownian(grid, 3, 0.0, SeedSpec(1)).values.copy()
        bad[2, 1] = value
        with pytest.raises(ValueError, match="finite"):
            PathEnsemble(grid, bad, "brownian")
    # the start is row 0, so a row 0 that is not one value has none, and
    # neither has an ensemble with no paths
    for row0 in ([0.0, 0.0, 1e-12], [1.0, 2.0, 1.0]):
        bad = good.copy()
        bad[0] = row0
        with pytest.raises(ValueError, match="row 0"):
            PathEnsemble(grid, bad, "brownian")
    with pytest.raises(ValueError, match="row 0"):
        PathEnsemble(grid, np.zeros((5, 0)), "solution")


def test_shifted_draw_reads_a_draw_from_zero_only():
    # row k of the view is row k of the draw plus x, which is the draw at x
    # only when the draw starts at 0
    grid = make_grid(1.0, 6)
    for start in (1.0, -0.5):
        with pytest.raises(ValueError, match="row 0 is 0"):
            _ShiftedDraw(sample_brownian(grid, 4, start, SeedSpec(1)), 2.0)
    with pytest.raises(ValueError, match="finite"):
        _ShiftedDraw(sample_brownian(grid, 4, 0.0, SeedSpec(1)), np.nan)
    view = _ShiftedDraw(sample_brownian(grid, 4, 0.0, SeedSpec(1)), 2.0)
    want = sample_brownian(grid, 4, 2.0, SeedSpec(1)).values
    assert np.array_equal(np.array([r.copy() for r in view._rows()]), want)
    assert (view.start, view.n_paths) == (2.0, 4)


def test_path_values_read_only():
    grid = make_grid(1.0, 4)
    paths = sample_brownian(grid, 8, 0.0, SeedSpec(1))
    with pytest.raises(ValueError):
        paths.values[0, 0] = 99.0


def _increment_digests(n, steps, caps):
    """SHA-256 of the increments _normal_increments draws for n paths at
    each thread cap, into one buffer filled with NaN before each draw, so
    that a column no thread writes cannot keep the last cap's bits."""
    out = np.empty((steps, n))
    digests = []
    try:
        for cap in caps:
            grid_module._threads = cap
            out.fill(np.nan)
            grid_module._normal_increments(out, SeedSpec(29, 4))
            digests.append(hashlib.sha256(out).hexdigest())
    finally:
        grid_module._threads = 1
    return digests


@pytest.mark.parametrize("steps", [1, 200, 1600])
@pytest.mark.parametrize("n", [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1,
                               3 * BLOCK_SIZE + 17, 50_000])
def test_threaded_draw_has_the_bits_of_one_thread(n, steps):
    # more threads than blocks, a partial tail block, and at 1600 steps
    # chunks that split a block raggedly in every thread's share of one
    # chunk; sample_brownian scales and sums these increments on the
    # calling thread, so its bits follow from theirs
    one, *threaded = _increment_digests(n, steps, (1, 2, 3, 4))
    assert threaded == [one] * 3


def test_threaded_draw_raises_a_worker_error_in_the_caller(monkeypatch):
    # block 1 goes to the second thread; without the re-raise its columns
    # would go out as whatever np.empty held
    seen = []
    block_generator = SeedSpec.block_generator

    def fail_on_block_1(self, j):
        if j == 1:
            seen.append(threading.current_thread())
            raise RuntimeError("block 1 failed")
        return block_generator(self, j)

    monkeypatch.setattr(SeedSpec, "block_generator", fail_on_block_1)
    monkeypatch.setattr(grid_module.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    monkeypatch.setattr(grid_module, "_threads", 2)
    with pytest.raises(RuntimeError, match="block 1 failed"):
        sample_brownian(make_grid(1.0, 20), 2 * BLOCK_SIZE, 0.0, SeedSpec(1))
    assert seen and seen[0] is not threading.main_thread()


def test_the_cli_sets_the_draw_cap_for_its_run_only(tmp_path, monkeypatch):
    caps = []
    draw = grid_module._normal_increments

    def record(out, seed):
        caps.append(grid_module._threads)
        draw(out, seed)

    monkeypatch.setattr(grid_module, "_normal_increments", record)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "model": {"name": "sign"},
        "run": {"particles": 500, "steps": 20, "seed": 5},
        "output": {"directory": str(tmp_path / "out")}}))
    assert cli_main(["simulate", "--config", str(config),
                     "--workers", "4"]) == 0
    assert caps == [4]
    assert grid_module._threads == 1
