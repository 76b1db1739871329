"""Uniform time grids, seeded Brownian ensembles and reproducible streams.

All Monte Carlo work in this package runs on a uniform grid over [0, T] and
consumes Brownian increments generated from counter-based (Philox) streams.
Streams are derived from a (seed, stream) pair and a fixed particle-block
partition, so a given SeedSpec always produces bit-identical ensembles, and
the first n paths of a larger ensemble are the ensemble of n paths.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .numerics import _number, running_sum

# Particles are generated in fixed blocks of this size; the partition is part
# of the reproducibility contract (changing it changes the draws).
BLOCK_SIZE = 4096

# Counter offset between consecutive blocks, in Philox draws. Each block
# consumes far fewer draws than 2**80, so blocks can never overlap.
_BLOCK_COUNTER_STRIDE = 1 << 80

# A block is drawn in consecutive chunks of about this many normals, so the
# draw holds one chunk beside its output, not a whole block.
_CHUNK_NORMALS = 1 << 18


# The thread cap of a run: a draw spreads its blocks over at most this
# many threads, and a Picard sweep of many paths settles its nodes on a
# second thread when it is 2 or more (solver._euler_sweep). Neither changes
# a bit. The command line sets it from --workers for the length of a run;
# every other caller runs on its own thread.
_threads = 1


def _usable_threads(wanted: int) -> int:
    """min(_threads, wanted), and no more than the CPUs this process may
    run on."""
    threads = min(_threads, wanted)
    if threads > 1:
        threads = min(threads, len(os.sched_getaffinity(0)))
    return threads


def _pool(threads: int):
    """A pool of `threads` threads, the one place this package starts
    threads: a future hands work over, waits for it and carries its error.
    Use it in a with block, which shuts it down and joins its threads."""
    # imported here, not at the top: concurrent.futures loads logging,
    # which every run's start-up would pay for through `import mfsde.cli`
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=threads)


def chunk_rows(steps: int) -> int:
    """Particles per chunk of a block drawn at `steps` normals each."""
    return max(1, _CHUNK_NORMALS // steps)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into `steps` intervals of width dt; T is
    a finite number > 0 and steps an integer >= 1."""

    horizon: float
    steps: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _number(self.horizon, "horizon", positive=True)
        _number(self.steps, "steps", lo=1, integer=True)
        nodes = np.linspace(0.0, self.horizon, self.steps + 1)
        # exact endpoints, no float drift from repeated addition
        nodes[0] = 0.0
        nodes[-1] = self.horizon
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def index_of(self, t: float) -> int:
        """Snap a time in [0, T] to the nearest node index."""
        if not (0.0 <= t <= self.horizon * (1.0 + 1e-12)):
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        return min(self.steps, int(round(t / self.dt)))


def make_grid(horizon: float, steps: int) -> TimeGrid:
    """Build the uniform grid with nodes t_k = k * T / steps."""
    return TimeGrid(horizon=horizon, steps=steps)


# A seed or stream is a Philox key word, an unsigned 64-bit integer.
MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream index selecting an independent substream.

    The pair keys a 128-bit Philox counter-based generator. Block j of an
    ensemble draws from counter offset j * 2**80, so its draws depend only
    on the pair and j.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        # each an unsigned 64-bit integer, held as an int: a float would
        # fail only in Philox, and a NumPy integer overflow in the key's
        # shift
        for name in ("seed", "stream"):
            object.__setattr__(self, name, _number(
                getattr(self, name), name, 0, MAX_SEED, integer=True))

    def child(self, offset: int) -> "SeedSpec":
        """Independent substream, e.g. for an auxiliary ensemble."""
        return SeedSpec(self.seed, self.stream + offset)

    def _key(self) -> int:
        return (self.stream << 64) | self.seed

    def block_generator(self, block_index: int) -> np.random.Generator:
        """Generator positioned at the counter offset of one particle block."""
        bitgen = np.random.Philox(key=self._key())
        bitgen.advance(block_index * _BLOCK_COUNTER_STRIDE)
        return np.random.Generator(bitgen)


@dataclass(frozen=True)
class PathEnsemble:
    """N >= 1 discrete paths on a common grid, values shaped (steps + 1, N):
    row k holds every path at node k.

    `kind` records what the paths represent ("brownian" for x + B_t, or
    "solution" for an Euler scheme output); `seed` is the stream that
    generated the driving noise. The common initial point x is row 0 of
    the values, read by `start`; a row 0 that does not hold one value is
    rejected. Values are read-only after construction.
    """

    grid: TimeGrid
    values: np.ndarray
    kind: str
    seed: "SeedSpec | None" = None

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.steps + 1:
            raise ValueError(
                f"values must have shape ({self.grid.steps + 1}, N), "
                f"got {self.values.shape}"
            )
        if self.kind not in ("brownian", "solution"):
            raise ValueError(f"unknown ensemble kind '{self.kind}'")
        if self.values.shape[1] == 0:
            raise ValueError("row 0 holds no start: the ensemble has no paths")
        # NaN propagates through min and max, and an infinity is one of
        # them, so this is np.isfinite(values).all() without its bool table
        if not (np.isfinite(self.values.min())
                and np.isfinite(self.values.max())):
            raise ValueError("path values must be finite")
        lo, hi = float(self.values[0].min()), float(self.values[0].max())
        if lo != hi:
            raise ValueError("row 0 must hold one start value, got values "
                             f"from {lo!r} to {hi!r}")
        self.values.setflags(write=False)

    @property
    def start(self) -> float:
        """The common initial point x, read from row 0."""
        return float(self.values[0, 0])

    @property
    def n_paths(self) -> int:
        return self.values.shape[1]

    def increments(self) -> np.ndarray:
        """Per-step increments, shape (steps, N)."""
        return np.diff(self.values, axis=0)

    def terminal(self) -> np.ndarray:
        return self.values[-1]

    def _rows(self) -> Iterator[np.ndarray]:
        """Rows 0..M of the values, in order, as views. Every pass over a
        driver takes its rows here first: the one gate that refuses a
        solution ensemble as a driver."""
        if self.kind != "brownian":
            raise ValueError("the driving ensemble must be Brownian, got "
                             f"kind '{self.kind}'")
        return iter(self.values)


@dataclass(frozen=True)
class _ShiftedDraw:
    """A Brownian draw started at 0, read as the ensemble started at x.

    sample_brownian writes row 0 as the start and adds the start to the
    cumulative sums, so row 0 read as x itself and row k >= 1 of the draw
    plus x have the bits of the ensemble sample_brownian gives at x (row 0
    is not 0.0 + x, which turns x = -0.0 into +0.0). `_rows` is the one
    place a start is added to a draw: every reader of a driving ensemble
    takes its rows there, so no shifted copy is ever held.
    """

    draw: PathEnsemble
    start: float

    def __post_init__(self) -> None:
        if self.draw.kind != "brownian" or self.draw.start != 0.0:
            raise ValueError("a shifted draw reads a Brownian draw whose "
                             f"row 0 is 0, got a {self.draw.kind} ensemble "
                             f"starting at {self.draw.start!r}")
        object.__setattr__(self, "start", _number(self.start, "start"))

    @property
    def grid(self) -> TimeGrid:
        return self.draw.grid

    @property
    def seed(self) -> "SeedSpec | None":
        return self.draw.seed

    @property
    def n_paths(self) -> int:
        return self.draw.n_paths

    def _rows(self) -> Iterator[np.ndarray]:
        """Rows 0..M of draw + x, in order, each a new array that is
        never written after, so a reader may keep it."""
        yield np.full(self.n_paths, self.start)
        for row in self.draw.values[1:]:
            yield row + self.start


def _normal_increments(out: np.ndarray, seed: SeedSpec) -> None:
    """Fill out, shape (steps, n_paths), with standard normal draws from
    fixed particle blocks; each block is drawn particle-major, in chunks,
    and each chunk written transposed into its columns.

    The blocks go round-robin to _usable_threads(blocks) shares, drawn on
    the calling thread when there is one and on a pool otherwise. Each
    share draws into its own rows of one scratch chunk of
    min(N, chunk_rows(steps)) particles, so the draw holds one chunk beside
    its output however many threads share it. The first share's error, in
    share order, is raised here once all have stopped."""
    steps, n_paths = out.shape
    blocks = (n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE
    threads = _usable_threads(blocks)
    rows = max(1, min(n_paths, chunk_rows(steps)) // threads)
    scratch = np.empty((threads, rows, steps))

    def draw(t: int) -> None:
        for j in range(t, blocks, threads):
            hi = min((j + 1) * BLOCK_SIZE, n_paths)
            # particle-major order puts each path's draws before the next
            # path's, so a path's draws do not depend on how many paths
            # follow it: a partial tail block is the prefix of the full
            # block, and a draw the prefix of any longer draw with the same
            # seed. A Generator fills standard_normal in order, so
            # consecutive chunks from one generator are the rows of the
            # one-call block, whatever the chunk size
            gen = seed.block_generator(j)
            for lo in range(j * BLOCK_SIZE, hi, rows):
                width = min(rows, hi - lo)
                chunk = gen.standard_normal(out=scratch[t, :width])
                out[:, lo:lo + width] = chunk.T

    if threads == 1:
        draw(0)
        return
    with _pool(threads) as pool:
        # list() waits for each share in order and raises its error
        list(pool.map(draw, range(threads)))


def sample_brownian(grid: TimeGrid, n_paths: int, start: float,
                    seed: SeedSpec) -> PathEnsemble:
    """Sample N Brownian paths started at x on the grid.

    Parameters
    ----------
    grid : time grid for the ensemble
    n_paths : number of paths N, an integer >= 1
    start : common initial value x, a finite number
    seed : stream specification; same spec gives bit-identical output

    Returns
    -------
    PathEnsemble of kind "brownian" with values[k, i] = x + B_{t_k} of
    path i; row 0 holds x, which is the ensemble's start.
    """
    _number(n_paths, "n_paths", lo=1, integer=True)
    _number(start, "start")
    values = np.empty((grid.steps + 1, n_paths))
    values[0] = start
    # the increments are drawn, scaled and summed in place in rows 1..M
    dw = values[1:]
    _normal_increments(dw, seed)
    dw *= math.sqrt(grid.dt)
    running_sum(dw, out=dw)
    dw += start
    return PathEnsemble(grid=grid, values=values, kind="brownian", seed=seed)
