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
from .grid import PathEnsemble, SeedSpec, TimeGrid, sample_brownian
from .measures import (EmpiricalMeasure, MeasureFlow, _sort_rows, _sup_w1,
                       dirac)
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
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.initial_flow not in ("brownian", "dirac"):
            raise ValueError(f"unknown initial flow '{self.initial_flow}'")


@dataclass(frozen=True)
class SolveResult:
    """Solution ensemble with its law flow and iteration diagnostics.

    `flow` is the empirical law of `ensemble` at every node. `frozen_flow`
    is the flow the final Euler pass ran under; feeding it back to
    euler_under_flow with the same seed reproduces `ensemble` bit for bit.
    For the direct particle scheme the two coincide by construction.
    """

    spec: DriftSpec
    ensemble: PathEnsemble
    brownian: PathEnsemble
    flow: MeasureFlow
    frozen_flow: MeasureFlow
    residual_history: tuple[float, ...]
    method: str

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def residual(self) -> float:
        return self.residual_history[-1]


def _euler_values(spec: DriftSpec, atoms: Optional[np.ndarray],
                  brownian: PathEnsemble, out: np.ndarray) -> np.ndarray:
    """Shared Euler loop writing row k + 1 of out from row k; returns out.

    Row k of the row-sorted `atoms` is the frozen law at node k; with atoms
    None, step k reads the empirical law of the live states instead.
    """
    grid = brownian.grid
    dt = grid.dt
    x = brownian.start
    limit = BLOWUP_FACTOR * (1.0 + abs(x))
    bv = brownian.values
    out[0] = x
    state = out[0]
    for k in range(grid.steps):
        if atoms is None:
            mu = EmpiricalMeasure(state.copy())
        else:
            mu = EmpiricalMeasure(atoms[k])
        b = spec.fn(float(grid.nodes[k]), state, mu)
        # dB_k = bv[k + 1] - bv[k] has the bits of np.diff, and since
        # addition commutes, dB_k + (state + b dt) has those of
        # state + b dt + dB_k
        row = np.subtract(bv[k + 1], bv[k], out=out[k + 1])
        row += state + b * dt
        state = row
        # NaN or inf when a state is non-finite, and both fail the test
        worst = float(np.abs(state).max())
        if not worst < limit:
            raise BlowUpError(step=k + 1,
                              worst=math.inf if math.isnan(worst) else worst,
                              limit=limit)
    return out


def euler_under_flow(spec: DriftSpec, flow: MeasureFlow, start: float,
                     grid: TimeGrid, n_paths: int, seed: SeedSpec,
                     brownian: Optional[PathEnsemble] = None) -> PathEnsemble:
    """One Euler pass with the law flow frozen.

    X_{k+1} = X_k + b(t_k, X_k, flow_k) dt + dB_k, X_0 = start. The driving
    ensemble is regenerated from the seed (or passed in to share work), so
    identical (seed, grid, n_paths) give identical increments across calls.

    Raises BlowUpError when any state leaves [-L, L] with
    L = 1e6 (1 + |start|).
    """
    if flow.grid != grid:
        raise ValueError("flow and requested grid disagree")
    if brownian is None:
        brownian = sample_brownian(grid, n_paths, start, seed)
    values = _euler_values(spec, flow.atoms, brownian,
                           np.empty_like(brownian.values))
    return PathEnsemble(grid=grid, values=values, kind="solution",
                        start=start, seed=brownian.seed)


def picard_solve(spec: DriftSpec, start: float, grid: TimeGrid, n_paths: int,
                 seed: SeedSpec, config: PicardConfig = PicardConfig(),
                 brownian: Optional[PathEnsemble] = None) -> SolveResult:
    """Construct the solution law by fixed-point iteration on measure flows.

    Each iteration runs Euler under the previous flow (same Brownian
    ensemble every time) and replaces the flow with the empirical law of the
    output. Stops when the uniform Kantorovich distance between successive
    flows drops below config.tolerance.

    The driving ensemble is sampled from the seed unless passed in to share
    work; a passed ensemble must be the one sample_brownian gives for
    (grid, n_paths, start, seed).

    A solve allocates three path arrays besides the driving ensemble and
    reuses them in every sweep: the solution, and two row-sorted flow
    buffers that swap roles (frozen flow, new flow) after each sweep. Only
    the converged sweep is wrapped in the read-only result.

    Raises PicardConvergenceError (with the residual history attached) if
    the tolerance is not reached within config.max_iterations.
    """
    if brownian is None:
        brownian = sample_brownian(grid, n_paths, start, seed)
    elif (brownian.grid != grid or brownian.n_paths != n_paths
          or brownian.start != start or brownian.seed != seed):
        raise ValueError("driving ensemble does not match the requested "
                         "grid, particle count, start and seed")
    values = np.empty_like(brownian.values)
    if config.initial_flow == "dirac":
        frozen = MeasureFlow.constant(grid, dirac(start)).atoms
    else:
        frozen = _sort_rows(brownian.values, np.empty_like(values))
    new = np.empty_like(values)

    residuals: list[float] = []
    for _ in range(config.max_iterations):
        _euler_values(spec, frozen, brownian, values)
        residuals.append(_sup_w1(_sort_rows(values, new), frozen))
        if residuals[-1] < config.tolerance:
            ensemble = PathEnsemble(grid=grid, values=values, kind="solution",
                                    start=start, seed=brownian.seed)
            return SolveResult(
                spec=spec, ensemble=ensemble, brownian=brownian,
                flow=MeasureFlow(grid, new),
                frozen_flow=MeasureFlow(grid, frozen),
                residual_history=tuple(residuals), method="picard",
            )
        # the new flow is frozen for the next sweep, which sorts into the
        # old frozen buffer; the Dirac start is a read-only one-atom view,
        # so its place goes to a second buffer allocated here
        frozen, new = new, (frozen if frozen.flags.writeable
                            else np.empty_like(values))
    raise PicardConvergenceError(residuals, config.tolerance)


def direct_particle_solve(spec: DriftSpec, start: float, grid: TimeGrid,
                          n_paths: int, seed: SeedSpec,
                          workers: int = 1) -> SolveResult:
    """Interacting-particle scheme: the law is that of the live states.

    Single Euler pass where step k reads the empirical measure of the
    current states. Same driving noise as picard_solve for equal seeds, so
    the two routes can be compared pathwise.

    `workers` has no effect: the paths are drawn on one thread. It is kept
    because perfbench/make_reference.py passes it.
    """
    brownian = sample_brownian(grid, n_paths, start, seed)
    values = _euler_values(spec, None, brownian,
                           np.empty_like(brownian.values))
    ensemble = PathEnsemble(grid=grid, values=values, kind="solution",
                            start=start, seed=seed)
    flow = MeasureFlow.from_ensemble(ensemble)
    return SolveResult(
        spec=spec, ensemble=ensemble, brownian=brownian, flow=flow,
        frozen_flow=flow, residual_history=(0.0,), method="direct",
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
    particle blocks make every draw a prefix of a longer one)."""
    draw = sample_brownian(grid, max(particle_counts), start, seed)
    ses = []
    for n in particle_counts:
        prefix = PathEnsemble(grid=grid, values=draw.values[:, :n],
                              kind="brownian", start=start, seed=seed)
        result = picard_solve(spec, start, grid, n, seed, config,
                              brownian=prefix)
        ses.append(mean_and_se(result.ensemble.terminal())[1])
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
