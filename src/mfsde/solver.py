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
import queue
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .drift import DriftSpec
from .grid import (PathEnsemble, SeedSpec, TimeGrid, _ShiftedDraw,
                   _usable_threads, sample_brownian)
from .measures import MeasureFlow, _w1_sorted
from .numerics import _entries, _number, loglog_slope, mean_and_se

# Hard abort threshold for the Euler state, relative to 1 + |x|.
BLOWUP_FACTOR = 1e6

# Slack factor on the linear-growth envelope of moment_diagnostics.
ENVELOPE_SLACK = 1.5

# A Picard sweep settles its nodes on a second thread from this many paths
# on. Below it both threads spend their time in Python between small numpy
# calls and contend for the interpreter lock: on 2 cores a sign-model solve
# of 200 steps took 2.85 times as long with the thread at 1,000 paths, 1.18
# at 8,000 and 1.03 at 12,000, and 0.91 at 16,384, 0.74 at 50,000.
_SETTLE_PATHS = 16_384


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
    """Fixed-point iteration controls: a finite tolerance > 0 and an
    integer max_iterations >= 1."""

    tolerance: float = 1e-3
    max_iterations: int = 50
    initial_flow: str = "brownian"  # "brownian" | "dirac"

    def __post_init__(self) -> None:
        _number(self.tolerance, "tolerance", positive=True)
        _number(self.max_iterations, "max_iterations", lo=1, integer=True)
        if self.initial_flow not in ("brownian", "dirac"):
            raise ValueError(f"unknown initial flow '{self.initial_flow}'")


@dataclass(frozen=True)
class SolveResult:
    """Solution ensemble with its iteration diagnostics.

    `laws[k]` is spec.law(np.sort(ensemble.values[k])), the law the drift
    reads at node k, as the sweep that sorted the node took it; a drift on
    the default law, EmpiricalMeasure, keeps its sorted rows there, one
    more path array. doleans_weights and the local-time readers take the
    laws; a caller that needs the atoms builds
    MeasureFlow.from_ensemble(ensemble). For a Picard solve,
    `residual_history` ends with the sup-W1 distance between the empirical
    law of the solution and the flow the final Euler pass ran under.
    `brownian` is the driving ensemble, Brownian by construction; for a
    solve driven by a shifted draw (grid._ShiftedDraw) it is that view,
    whose rows, read through its `_rows()` as every reader of a driver
    reads them, are the ensemble at the start bit for bit. It has no
    `values`.
    """

    spec: DriftSpec
    ensemble: PathEnsemble
    brownian: PathEnsemble | _ShiftedDraw
    residual_history: tuple[float, ...]
    laws: tuple

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def residual(self) -> float:
        return self.residual_history[-1]


def _euler_sweep(spec: DriftSpec, frozen: Optional[np.ndarray],
                 brownian: PathEnsemble | _ShiftedDraw, out: np.ndarray,
                 unsorted: int = 0, tolerance: Optional[float] = None
                 ) -> tuple[float, list]:
    """The one Euler loop: the states of node k + 1 from those of node k,
    in a three-row ring, and node k settled into out[k] once step k is
    done.

    Step k reads spec.law(frozen[k]) as the law at node k, frozen being
    row-sorted except for its first `unsorted` rows, which hold states in
    path order and are sorted in place just before node k reads them. With
    frozen None, step k reads the law of the live states, which the sweep
    sorts into a fresh array before the step.

    Settling node k: with a tolerance, the sweep sorts the node's new
    states once, into a fresh array, takes their law, and their W1 to
    frozen[k] updates the running sup residual. out[k], which may be
    frozen itself, receives the states in path order while that residual
    is below the tolerance and the sorted states after, so a sweep that
    converges leaves the solution in out; without a tolerance, always in
    path order. Returns the residual (0.0 without a tolerance) and the law
    of each sorted node left in path order.

    No later step reads what settling writes, so a sweep with a frozen
    flow, a tolerance and at least _SETTLE_PATHS paths settles its nodes on
    a second thread, one node behind the steps, when the run's thread cap
    (grid._threads) and the CPUs allow two. That thread settles node k
    only once step k has read frozen[k], and the nodes in order, so the
    residual, out and the laws have the bits of settling each node right
    after its step; the loop waits before it overwrites a ring row not yet
    settled. An error on either thread is raised here once both have
    stopped: the settling thread's first, since it comes from a node
    before the step that failed.
    """
    grid = brownian.grid
    dt = grid.dt
    # the driver is read row by row, so a shifted draw is never copied
    # whole
    rows = brownian._rows()
    b_k = next(rows)
    ring = np.empty((3, out.shape[1]))
    # the solution starts where its driver starts: row 0 is x
    np.copyto(ring[0], b_k)
    limit = BLOWUP_FACTOR * (1.0 + abs(brownian.start))
    sorts = frozen is None or tolerance is not None
    residual = 0.0
    laws: list = []
    law = None

    def settle(k: int, state: np.ndarray, law) -> None:
        nonlocal residual
        if tolerance is not None:
            ordered = np.sort(state)
            law = spec.law(ordered)
            # frozen[k] is read for the last time: out[k], which may be
            # it, holds the distance's scratch and then the node
            residual = max(residual,
                           _w1_sorted(ordered, frozen[k], out=out[k]))
            if not residual < tolerance:
                # this sweep is not the last: the next reads the flow
                np.copyto(out[k], ordered)
                return
        np.copyto(out[k], state)
        if sorts:
            laws.append(law)

    behind = (frozen is not None and tolerance is not None
              and out.shape[1] >= _SETTLE_PATHS and _usable_threads(2) == 2)
    if behind:
        handed: queue.SimpleQueue = queue.SimpleQueue()
        # ring rows the loop may write: two are free at the start, and
        # each node settled frees its row
        free = threading.Semaphore(2)
        errors: list[BaseException] = []

        def settle_behind() -> None:
            while (k := handed.get()) is not None:
                if not errors:
                    try:
                        settle(k, ring[k % 3], None)
                    except BaseException as exc:
                        errors.append(exc)
                free.release()

        helper = threading.Thread(target=settle_behind)
        helper.start()
    try:
        for k in range(grid.steps + 1):
            state = ring[k % 3]
            if k < unsorted:
                # sorting is deterministic: the row gets back the bits it
                # had in the flow of the sweep before
                frozen[k].sort()
            if frozen is None:
                law = spec.law(np.sort(state))
            if k < grid.steps:
                b = spec.fn(float(grid.nodes[k]), state,
                            law if frozen is None else spec.law(frozen[k]))
                # dB_k = b_next - b_k has the bits of np.diff, and since
                # addition commutes, dB_k + (state + b dt) has those of
                # state + b dt + dB_k
                b_next = next(rows)
                if behind:
                    # node k - 2 held the row this step writes
                    free.acquire()
                    if errors:
                        break
                row = np.subtract(b_next, b_k, out=ring[(k + 1) % 3])
                row += state + b * dt
                b_k = b_next
                # NaN or inf when a state is non-finite, and both fail the
                # test
                worst = float(np.abs(row).max())
                if not worst < limit:
                    raise BlowUpError(step=k + 1,
                                      worst=math.inf if math.isnan(worst)
                                      else worst,
                                      limit=limit)
            if behind:
                handed.put(k)
            else:
                settle(k, state, law)
    finally:
        if behind:
            handed.put(None)
            helper.join()
            if errors:
                raise errors[0]
    return residual, laws


def euler_under_flow(spec: DriftSpec, flow: MeasureFlow,
                     brownian: PathEnsemble) -> PathEnsemble:
    """One Euler pass with the law flow frozen.

    X_{k+1} = X_k + b(t_k, X_k, flow_k) dt + dB_k, X_0 = x, with x, the
    grid, the increments and the seed those of the Brownian ensemble
    `brownian`, on whose grid the flow must be.

    Raises BlowUpError when any state leaves [-L, L] with
    L = 1e6 (1 + |x|).
    """
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
    gives for them or a grid._ShiftedDraw of the draw at 0 read at start.
    Either is read one row at a time through its `_rows()`, so no shifted
    copy of the draw is held, and `_rows()` refuses a solution ensemble
    with ValueError before the first Euler step, from either start.

    A solve allocates one path array besides the driving ensemble and
    reuses it in every sweep: the flow buffer. Inside the sweep, once step
    k has read row k of the frozen flow, node k of the new states
    overwrites it: in path order while the sweep's running residual is
    below the tolerance, sorted after. From _SETTLE_PATHS paths on, with
    the run's thread cap (grid._threads, set from --workers) at 2 or more
    on two CPUs, a second thread does that settling one node behind the
    Euler steps, with the same bits. Each sweep sorts the rows left in
    path order in place just before it reads them, which gives back the
    bits of the sorted rows; from the Brownian start, the buffer first
    holds the driver's rows in path order, and sweep 1 sorts them so. The
    sweep that converges leaves every row in path order, so the buffer is
    then the solution, wrapped read-only as the result's ensemble, with
    that sweep's node laws as its laws (an earlier sweep's are dropped
    before the next runs). A Dirac start's flow is a read-only (M+1, 1)
    broadcast of the start, which sweep 1 reads while it fills the buffer.

    Raises PicardConvergenceError (with the residual history attached) if
    the tolerance is not reached within config.max_iterations.
    """
    if brownian is None:
        brownian = sample_brownian(grid, n_paths, start, seed)
    elif (brownian.grid != grid or brownian.n_paths != n_paths
          or brownian.start != start or brownian.seed != seed):
        raise ValueError("driving ensemble does not match the requested "
                         "grid, particle count, start and seed")
    buffer = np.empty((grid.steps + 1, n_paths))
    unsorted = 0
    if config.initial_flow == "dirac":
        # the driver starts at this finite start, checked above
        frozen = np.broadcast_to(float(start), (grid.steps + 1, 1))
    else:
        # the driver's rows in path order, which sweep 1 sorts in place as
        # every later sweep sorts the rows left in path order
        for dst, row in zip(buffer, brownian._rows()):
            np.copyto(dst, row)
        frozen, unsorted = buffer, grid.steps + 1

    residuals: list[float] = []
    for _ in range(config.max_iterations):
        residual, laws = _euler_sweep(spec, frozen, brownian, buffer,
                                      unsorted, config.tolerance)
        residuals.append(residual)
        if residual < config.tolerance:
            ensemble = PathEnsemble(grid=grid, values=buffer,
                                    kind="solution", seed=brownian.seed)
            return SolveResult(spec=spec, ensemble=ensemble,
                               brownian=brownian,
                               residual_history=tuple(residuals),
                               laws=tuple(laws))
        unsorted, laws = len(laws), None  # dropped before the next sweep
        frozen = buffer
    raise PicardConvergenceError(residuals, config.tolerance)


def direct_particle_solve(spec: DriftSpec, start: float, grid: TimeGrid,
                          n_paths: int, seed: SeedSpec,
                          workers: int = 1) -> SolveResult:
    """Interacting-particle scheme: the law is that of the live states.

    Single Euler pass where step k reads the law of the current states,
    which with node M's are the result's laws. Same driving noise as
    picard_solve for equal seeds, so the two routes can be compared
    pathwise.

    `workers` has no effect: the draw's thread cap is the run's, which the
    command line sets from --workers (one thread otherwise), and the bits
    do not depend on it. It is kept because perfbench/make_reference.py passes
    it.
    """
    brownian = sample_brownian(grid, n_paths, start, seed)
    values = np.empty_like(brownian.values)
    _, laws = _euler_sweep(spec, None, brownian, values)
    ensemble = PathEnsemble(grid=grid, values=values, kind="solution",
                            seed=seed)
    return SolveResult(spec=spec, ensemble=ensemble, brownian=brownian,
                       residual_history=(0.0,), laws=tuple(laws))


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
    beside the draw alone. The counts are two or more distinct integers
    >= 2, checked before the draw."""
    particle_counts = _entries(particle_counts, "particle_counts", lo=2,
                               integer=True)
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


def moment_diagnostics(result: SolveResult,
                       orders: tuple[float, ...] = (2.0,)) -> MomentReport:
    """Audit moments and the pathwise linear-growth envelope.

    The solution of a linear-growth drift satisfies
    |X_t| <= c (1 + |x| + sup_s |x + B_s|) pathwise with
    c = (1 + C T) exp(C T) for the declared growth constant C. The report
    flags the run when the observed ratio exceeds that envelope times
    ENVELOPE_SLACK, which catches drifts whose declared constants lie.
    Each order must be a finite positive number.
    """
    for p in orders:
        _number(p, f"orders entry {p!r}", positive=True)
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

    # sup_k |v_k| per path of the solution and of its driver, in one pass
    # over the rows
    sup_x, sup_driver = np.zeros((2, values.shape[1]))
    for v, b in zip(values, result.brownian._rows()):
        np.maximum(sup_x, np.abs(v, out=row), out=sup_x)
        np.maximum(sup_driver, np.abs(b, out=row), out=sup_driver)
    denom = 1.0 + abs(result.ensemble.start) + sup_driver
    ratio = float(np.max(sup_x / denom))

    c = result.spec.growth_const
    horizon = result.ensemble.grid.horizon
    limit = (1.0 + c * horizon) * np.exp(c * horizon) * ENVELOPE_SLACK
    return MomentReport(
        orders=tuple(orders), node_moments=node_moments,
        max_moments=max_moments, envelope_ratio=ratio,
        envelope_limit=float(limit), flagged=ratio > limit,
    )
