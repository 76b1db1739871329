"""Euler schemes and the Picard fixed-point construction of the law flow.

The mean-field equation dX_t = b(t, X_t, Law(X_t)) dt + dB_t is solved by
iterating the map "freeze the law flow, run Euler, read off the empirical
flow" until the flow stops moving in the uniform Kantorovich distance.
Every Euler pass reuses the same Brownian ensemble (common random numbers),
so successive flows differ by the scheme's deterministic response to the
flow update rather than by fresh sampling noise, and the iteration can reach
tolerances well below the single-run statistical error.

A direct interacting-particle scheme (each step reads the empirical law of
the live states) is provided as an independent route to the same limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .drift import DriftSpec
from .grid import (PathEnsemble, SeedSpec, TimeGrid, _ShiftedDraw,
                   sample_brownian)
from .measures import MeasureFlow, _sort_rows, _w1_sorted, dirac
from .numerics import loglog_slope, mean_and_se

# Hard abort threshold for the Euler state, relative to 1 + |x|.
BLOWUP_FACTOR = 1e6

# Slack factor on the linear-growth envelope of moment_diagnostics.
ENVELOPE_SLACK = 1.5


class BlowUpError(FloatingPointError):
    """Euler state escaped the sanity envelope (or went non-finite)."""

    def __init__(self, step: int, worst: float, limit: float):
        self.step = step
        self.worst = worst
        self.limit = limit
        super().__init__(
            f"state blew up at step {step}: max |X| = {worst:.3e} "
            f"exceeds limit {limit:.3e}"
        )


class PicardConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance; history attached."""

    def __init__(self, residuals: list[float], tolerance: float):
        self.residuals = residuals
        self.tolerance = tolerance
        super().__init__(
            f"Picard iteration did not reach tolerance {tolerance:.3e} in "
            f"{len(residuals)} iterations; last residual {residuals[-1]:.3e}"
        )


@dataclass(frozen=True)
class PicardConfig:
    """Fixed-point iteration controls."""

    tolerance: float = 1e-3
    max_iterations: int = 50
    initial_flow: str = "brownian"  # "brownian" | "dirac"

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError(
                f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.initial_flow not in ("brownian", "dirac"):
            raise ValueError(f"unknown initial flow '{self.initial_flow}'")


@dataclass(frozen=True)
class SolveResult:
    """Solution ensemble with its law flow and iteration diagnostics.

    `flow` is the empirical law of `ensemble` at every node. For a Picard
    solve, `flow` replaced, node by node, the flow the final Euler pass ran
    under, which is not kept; `residual_history` ends with the sup-W1
    distance between the two. `brownian` is the driving ensemble; for a
    solve driven by a shifted draw (grid._ShiftedDraw) it is that view,
    which reads as the ensemble at the start bit for bit and builds its
    values only when they are read.
    """

    spec: DriftSpec
    ensemble: PathEnsemble
    brownian: PathEnsemble | _ShiftedDraw
    flow: MeasureFlow
    residual_history: tuple[float, ...]

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def residual(self) -> float:
        return self.residual_history[-1]


def _euler_sweep(spec: DriftSpec, frozen: Optional[np.ndarray],
                 brownian: PathEnsemble | _ShiftedDraw, out: np.ndarray,
                 flow: Optional[np.ndarray] = None) -> float:
    """The one Euler loop: writes row k + 1 of out from row k.

    Step k reads row k of the row-sorted `frozen` as the law at node k,
    through spec.law.
    With `flow` given, the sweep sorts row k of out into flow[k] once step
    k has read frozen[k], so flow may be frozen itself and is then updated
    in place, and it returns the sup over nodes of W1 between the new and
    the frozen rows. With frozen None, row k is sorted into flow[k] before
    step k, which reads that empirical law of the live states. A sweep
    without flow or without frozen returns 0.0.
    """
    grid = brownian.grid
    dt = grid.dt
    # the driver is read row by row, so a shifted draw is never copied
    # whole; step k holds rows k and k + 1 of it
    rows = brownian._rows()
    b_k = next(rows)
    # the solution starts where its driver starts: row 0 is x
    np.copyto(out[0], b_k)
    limit = BLOWUP_FACTOR * (1.0 + abs(brownian.start))
    # the new row k goes through a one-row scratch, as frozen[k] must stay
    # whole until the distance between the two is taken
    scratch = np.empty(out.shape[1])
    residual = 0.0

    def settle(k: int) -> float:
        """Sort row k of out into flow[k]; its W1 to frozen[k], if any."""
        if frozen is None:
            np.copyto(flow[k], out[k])
            flow[k].sort()
            return 0.0
        np.copyto(scratch, out[k])
        scratch.sort()
        d = _w1_sorted(scratch, frozen[k])
        np.copyto(flow[k], scratch)
        return d

    # rows has given row 0, so the k-th row it gives now is row k + 1
    for k, b_next in enumerate(rows):
        state = out[k]
        if frozen is None:
            settle(k)
            law = spec.law(flow[k])
        else:
            law = spec.law(frozen[k])
        b = spec.fn(float(grid.nodes[k]), state, law)
        # dB_k = b_next - b_k has the bits of np.diff, and since
        # addition commutes, dB_k + (state + b dt) has those of
        # state + b dt + dB_k
        row = np.subtract(b_next, b_k, out=out[k + 1])
        row += state + b * dt
        b_k = b_next
        # NaN or inf when a state is non-finite, and both fail the test
        worst = float(np.abs(row).max())
        if not worst < limit:
            raise BlowUpError(step=k + 1,
                              worst=math.inf if math.isnan(worst) else worst,
                              limit=limit)
        if frozen is not None and flow is not None:
            residual = max(residual, settle(k))
    if flow is not None:
        residual = max(residual, settle(grid.steps))
    return residual


def euler_under_flow(spec: DriftSpec, flow: MeasureFlow,
                     brownian: PathEnsemble) -> PathEnsemble:
    """One Euler pass with the law flow frozen.

    X_{k+1} = X_k + b(t_k, X_k, flow_k) dt + dB_k, X_0 = x, with x, the
    grid, the increments and the seed those of the Brownian ensemble
    `brownian`, on whose grid the flow must be.

    Raises BlowUpError when any state leaves [-L, L] with
    L = 1e6 (1 + |x|).
    """
    if brownian.kind != "brownian":
        raise ValueError("the driving ensemble must be Brownian, got kind "
                         f"'{brownian.kind}'")
    if flow.grid != brownian.grid:
        raise ValueError("flow and driving ensemble are on different grids")
    values = np.empty((brownian.grid.steps + 1, brownian.n_paths))
    _euler_sweep(spec, flow.atoms, brownian, values)
    return PathEnsemble(grid=brownian.grid, values=values, kind="solution",
                        seed=brownian.seed)


def picard_solve(spec: DriftSpec, start: float, grid: TimeGrid, n_paths: int,
                 seed: SeedSpec, config: PicardConfig = PicardConfig(),
                 brownian: PathEnsemble | _ShiftedDraw | None = None
                 ) -> SolveResult:
    """Construct the solution law by fixed-point iteration on measure flows.

    Each iteration runs Euler under the previous flow (same Brownian
    ensemble every time) and replaces the flow with the empirical law of the
    output. Stops when the uniform Kantorovich distance between successive
    flows drops below config.tolerance.

    The driving ensemble is sampled from the seed unless passed in to share
    work. A passed driver must match (grid, n_paths, start, seed), its
    start being its row 0, and is either the PathEnsemble sample_brownian
    gives for them, read as it is, or a grid._ShiftedDraw of the draw at 0
    read at start, whose rows the solve reads one at a time, so that no
    shifted copy of the draw is held.

    A solve allocates two path arrays besides the driving ensemble and
    reuses them in every sweep: the solution and one row-sorted flow
    buffer. Inside the sweep, once step k has read row k of the frozen
    flow, the sorted row k of the solution overwrites it, so the buffer
    ends each sweep holding the new flow. A Dirac start's flow is a
    read-only one-atom view, so the buffer is allocated before sweep 1.
    Only the converged sweep is wrapped in the read-only result.

    Raises PicardConvergenceError (with the residual history attached) if
    the tolerance is not reached within config.max_iterations.
    """
    if brownian is None:
        brownian = sample_brownian(grid, n_paths, start, seed)
    elif (brownian.grid != grid or brownian.n_paths != n_paths
          or brownian.start != start or brownian.seed != seed):
        raise ValueError("driving ensemble does not match the requested "
                         "grid, particle count, start and seed")
    values = np.empty((grid.steps + 1, n_paths))
    flow = np.empty_like(values)
    if config.initial_flow == "dirac":
        frozen = MeasureFlow.constant(grid, dirac(start)).atoms
    else:
        frozen = _sort_rows(brownian._rows(), flow)

    residuals: list[float] = []
    for _ in range(config.max_iterations):
        residuals.append(_euler_sweep(spec, frozen, brownian, values, flow))
        if residuals[-1] < config.tolerance:
            ensemble = PathEnsemble(grid=grid, values=values, kind="solution",
                                    seed=brownian.seed)
            return SolveResult(
                spec=spec, ensemble=ensemble, brownian=brownian,
                flow=MeasureFlow(grid, flow),
                residual_history=tuple(residuals),
            )
        frozen = flow
    raise PicardConvergenceError(residuals, config.tolerance)


def direct_particle_solve(spec: DriftSpec, start: float, grid: TimeGrid,
                          n_paths: int, seed: SeedSpec,
                          workers: int = 1) -> SolveResult:
    """Interacting-particle scheme: the law is that of the live states.

    Single Euler pass where step k reads the empirical measure of the
    current states, sorted into row k of the flow. Same driving noise as
    picard_solve for equal seeds, so the two routes can be compared
    pathwise.

    `workers` has no effect: the paths are drawn on one thread. It is kept
    because perfbench/make_reference.py passes it.
    """
    brownian = sample_brownian(grid, n_paths, start, seed)
    values = np.empty_like(brownian.values)
    flow = np.empty_like(values)
    _euler_sweep(spec, None, brownian, values, flow)
    ensemble = PathEnsemble(grid=grid, values=values, kind="solution",
                            seed=seed)
    return SolveResult(
        spec=spec, ensemble=ensemble, brownian=brownian,
        flow=MeasureFlow(grid, flow), residual_history=(0.0,),
    )


def se_rate_study(spec: DriftSpec, start: float, grid: TimeGrid,
                  particle_counts: Sequence[int], seed: SeedSpec,
                  config: PicardConfig = PicardConfig()
                  ) -> tuple[list[float], float]:
    """Standard error of the terminal mean of one solve per particle count,
    and the fitted log-log slope of standard error against count (about
    -0.5).

    The paths are drawn once at the largest count; each solve runs on the
    first n of them, which are the paths sample_brownian gives for n (the
    particle blocks make every draw a prefix of a longer one). Of each
    solve the study keeps only the standard error, so the next solve runs
    beside the draw alone."""
    draw = sample_brownian(grid, max(particle_counts), start, seed)
    ses = []
    for n in particle_counts:
        prefix = PathEnsemble(grid=grid, values=draw.values[:, :n],
                              kind="brownian", seed=seed)
        solve = picard_solve(spec, start, grid, n, seed, config,
                             brownian=prefix)
        ses.append(mean_and_se(solve.ensemble.terminal())[1])
        del solve
    return ses, loglog_slope(particle_counts, ses)


@dataclass(frozen=True)
class MomentReport:
    """Per-node moment summary and pathwise growth-envelope audit."""

    orders: tuple[float, ...]
    node_moments: np.ndarray  # shape (len(orders), steps + 1)
    max_moments: tuple[float, ...]
    envelope_ratio: float
    envelope_limit: float
    flagged: bool


def _sup_abs(v: np.ndarray) -> np.ndarray:
    """max_k |v[k]| per path without an |v| temporary (exactly equal)."""
    return np.maximum(v.max(axis=0), -v.min(axis=0))


def moment_diagnostics(result: SolveResult,
                       orders: tuple[float, ...] = (2.0,)) -> MomentReport:
    """Audit moments and the pathwise linear-growth envelope.

    The solution of a linear-growth drift satisfies
    |X_t| <= c (1 + |x| + sup_s |x + B_s|) pathwise with
    c = (1 + C T) exp(C T) for the declared growth constant C. The report
    flags the run when the observed ratio exceeds that envelope times
    ENVELOPE_SLACK, which catches drifts whose declared constants lie.
    """
    for p in orders:
        if p <= 0:
            raise ValueError(f"moment orders must be positive, got {p}")
    values = result.ensemble.values
    # each node is raised in place in one row buffer, so the audit adds no
    # path array to the peak; a row's mean has the bits of mean(axis=1)
    row = np.empty(values.shape[1])
    node_moments = np.empty((len(orders), values.shape[0]))
    for i, p in enumerate(orders):
        for k, v in enumerate(values):
            np.abs(v, out=row)
            np.power(row, p, out=row)
            node_moments[i, k] = row.mean()
    max_moments = tuple(float(m.max()) for m in node_moments)

    sup_driver = _sup_abs(result.brownian.values)
    denom = 1.0 + abs(result.ensemble.start) + sup_driver
    ratio = float(np.max(_sup_abs(values) / denom))

    c = result.spec.growth_const
    horizon = result.ensemble.grid.horizon
    limit = (1.0 + c * horizon) * np.exp(c * horizon) * ENVELOPE_SLACK
    return MomentReport(
        orders=tuple(orders), node_moments=node_moments,
        max_moments=max_moments, envelope_ratio=ratio,
        envelope_limit=float(limit), flagged=ratio > limit,
    )
