"""Uniform time grids, seeded Brownian ensembles and reproducible streams.

All Monte Carlo work in this package runs on a uniform grid over [0, T] and
consumes Brownian increments generated from counter-based (Philox) streams.
Streams are derived from a (seed, stream) pair and a fixed particle-block
partition, so a given SeedSpec always produces bit-identical ensembles, and
the first n paths of a larger ensemble are the ensemble of n paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import running_sum

# Particles are generated in fixed blocks of this size; the partition is part
# of the reproducibility contract (changing it changes the draws).
BLOCK_SIZE = 4096

# Counter offset between consecutive blocks, in Philox draws. Each block
# consumes far fewer draws than 2**80, so blocks can never overlap.
_BLOCK_COUNTER_STRIDE = 1 << 80

# A block is drawn in consecutive chunks of about this many normals, so the
# draw holds one chunk beside its output, not a whole block.
_CHUNK_NORMALS = 1 << 18


def chunk_rows(steps: int) -> int:
    """Particles per chunk of a block drawn at `steps` normals each."""
    return max(1, _CHUNK_NORMALS // steps)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into `steps` intervals of width dt."""

    horizon: float
    steps: int
    nodes: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
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
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not (0 <= self.stream < 2**64):
            raise ValueError("stream must fit in an unsigned 64-bit integer")

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
    """N discrete paths on a common grid, values shaped (steps + 1, N):
    row k holds every path at node k.

    `kind` records what the paths represent ("brownian" for x + B_t, or
    "solution" for an Euler scheme output); `start` is the common initial
    point x; `seed` is the stream that generated the driving noise. Values
    are read-only after construction.
    """

    grid: TimeGrid
    values: np.ndarray
    kind: str
    start: float
    seed: "SeedSpec | None" = None

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.steps + 1:
            raise ValueError(
                f"values must have shape ({self.grid.steps + 1}, N), "
                f"got {self.values.shape}"
            )
        if self.kind not in ("brownian", "solution"):
            raise ValueError(f"unknown ensemble kind '{self.kind}'")
        # NaN propagates through min and max, and an infinity is one of
        # them, so this is np.isfinite(values).all() without its bool table
        if not (np.isfinite(self.values.min())
                and np.isfinite(self.values.max())):
            raise ValueError("path values must be finite")
        self.values.setflags(write=False)

    @property
    def n_paths(self) -> int:
        return self.values.shape[1]

    def increments(self) -> np.ndarray:
        """Per-step increments, shape (steps, N)."""
        return np.diff(self.values, axis=0)

    def terminal(self) -> np.ndarray:
        return self.values[-1]


def _normal_increments(out: np.ndarray, seed: SeedSpec) -> None:
    """Fill out, shape (steps, n_paths), with standard normal draws from
    fixed particle blocks; each block is drawn particle-major, in chunks of
    chunk_rows(steps) particles, and each chunk written transposed into its
    columns."""
    steps, n_paths = out.shape
    rows = chunk_rows(steps)
    for j in range((n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE):
        hi = min((j + 1) * BLOCK_SIZE, n_paths)
        # particle-major order puts each path's draws before the next
        # path's, so a path's draws do not depend on how many paths follow
        # it: a partial tail block is the prefix of the full block, and a
        # draw the prefix of any longer draw with the same seed. A
        # Generator fills standard_normal in order, so consecutive chunks
        # from one generator are the rows of the one-call block
        gen = seed.block_generator(j)
        for lo in range(j * BLOCK_SIZE, hi, rows):
            width = min(rows, hi - lo)
            out[:, lo:lo + width] = gen.standard_normal((width, steps)).T


def sample_brownian(grid: TimeGrid, n_paths: int, start: float,
                    seed: SeedSpec) -> PathEnsemble:
    """Sample N Brownian paths started at x on the grid.

    Parameters
    ----------
    grid : time grid for the ensemble
    n_paths : number of paths N
    start : common initial value x
    seed : stream specification; same spec gives bit-identical output

    Returns
    -------
    PathEnsemble of kind "brownian" with values[k, i] = x + B_{t_k} of
    path i.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    values = np.empty((grid.steps + 1, n_paths))
    values[0] = start
    # the increments are drawn, scaled and summed in place in rows 1..M
    dw = values[1:]
    _normal_increments(dw, seed)
    dw *= math.sqrt(grid.dt)
    running_sum(dw, out=dw)
    dw += start
    return PathEnsemble(grid=grid, values=values, kind="brownian",
                        start=start, seed=seed)
