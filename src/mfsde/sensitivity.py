"""Sensitivity of E[payoff(X_T^x)] to the initial point x.

Three estimators of the same delta:

* bel_delta: integration-by-parts (Bismut-Elworthy-Li) weight. The delta is
  E[ payoff(X_T) int_0^T ( a(s) dX_s/dx + dxb(s, X_s) A(s) ) dW_s ] for any
  bounded a with integral one (A is its running integral), where dxb is the
  derivative of the drift in the initial point through the law argument.
  The integrand is adapted, so a plain Ito sum against the increments of the
  driving Brownian motion does the job. No derivative of the payoff and no
  derivative of the drift in the state variable are needed; the first
  variation comes from the local-time machinery. Everything is evaluated
  along the driving Brownian ensemble and transported by the Girsanov
  weights of the same run; in that representation the driving increments of
  the solution are dB_k - b dt.

* pathwise_delta: E[ payoff'(X_T) dX_T/dx ] for differentiable payoffs.

* finite_difference_delta: central difference of two full solves at x +/- h
  under common random numbers; the blunt baseline the other two must match.

The estimators are reductions over a DeltaSession, which runs each Picard
solve they read once and computes the weights, cumulants and first variation
once; bel_delta, pathwise_delta and finite_difference_delta are one-shot
sessions.

The delta is x-almost-everywhere well defined; at an exceptional null set of
initial points (e.g. a payoff kink sitting exactly on an atom of the law)
the reported value is the version picked by the discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .drift import DriftSpec, mollify
from .girsanov import EstimatorResult, drift_along_paths, log_weights
from .grid import PathEnsemble, SeedSpec, TimeGrid, sample_brownian
from .localtime import (SpaceTimeFn, cumulative_integral,
                        law_derivative_table, variation_path)
from .measures import MeasureFlow, kantorovich
from .numerics import guarded_exp, loglog_slope, mean_and_se
from .solver import PicardConfig, SolveResult, picard_solve


# ---------------------------------------------------------------------------
# weight functions a(s) with integral one
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunctionA:
    """Bounded weight a on [0, T] with int_0^T a = 1 and exact running
    integral A(t); the delta must not depend on the choice."""

    name: str
    horizon: float
    fn: Callable[[np.ndarray], np.ndarray]
    integral: Callable[[np.ndarray], np.ndarray]

    def validate(self, grid: TimeGrid, tol: float = 1e-10) -> None:
        """Reject weights whose grid quadrature misses integral one."""
        if grid.horizon != self.horizon:
            raise ValueError("weight horizon does not match the grid")
        total = float(np.trapezoid(self.fn(grid.nodes), grid.nodes))
        if abs(total - 1.0) > tol:
            raise ValueError(
                f"weight '{self.name}' integrates to {total!r}, not 1")
        if abs(float(self.integral(np.array([self.horizon]))[0]) - 1.0) > tol:
            raise ValueError(
                f"weight '{self.name}' running integral misses A(T) = 1")


def uniform_weight(horizon: float) -> WeightFunctionA:
    """a = 1/T; the flat default."""
    return WeightFunctionA(
        name="uniform", horizon=horizon,
        fn=lambda s: np.full_like(np.asarray(s, dtype=float), 1.0 / horizon),
        integral=lambda t: np.asarray(t, dtype=float) / horizon,
    )


def front_loaded_weight(horizon: float) -> WeightFunctionA:
    """a(s) = 2 (T - s) / T^2; puts its mass early on the horizon."""
    t_ = horizon
    return WeightFunctionA(
        name="front_loaded", horizon=t_,
        fn=lambda s: 2.0 * (t_ - np.asarray(s, dtype=float)) / (t_ * t_),
        integral=lambda t: np.asarray(t, dtype=float)
        * (2.0 * t_ - np.asarray(t, dtype=float)) / (t_ * t_),
    )


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Payoff:
    """Terminal functional with its (a.e.) derivative when one exists."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None


def identity_payoff() -> Payoff:
    return Payoff("identity", fn=lambda y: y,
                  derivative=lambda y: np.ones_like(y))


def square_payoff() -> Payoff:
    return Payoff("square", fn=lambda y: y * y, derivative=lambda y: 2.0 * y)


def call_payoff(strike: float = 0.0) -> Payoff:
    """max(y - strike, 0); derivative is the a.e. version (indicator)."""
    return Payoff(
        f"call({strike:g})", fn=lambda y: np.maximum(y - strike, 0.0),
        derivative=lambda y: (y > strike).astype(float),
    )


def constant_payoff(value: float = 1.0) -> Payoff:
    return Payoff(f"constant({value:g})",
                  fn=lambda y: np.full_like(np.asarray(y, dtype=float), value),
                  derivative=lambda y: np.zeros_like(y))


# ---------------------------------------------------------------------------
# bump size of the law derivative and the finite difference
# ---------------------------------------------------------------------------

def default_bump(start: float) -> float:
    """Bump size 1e-2 (1 + |x|); balances bias and flow-noise cancellation."""
    return 1e-2 * (1.0 + abs(start))


# ---------------------------------------------------------------------------
# delta session: the solves and per-path arrays the estimators share
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PathTerms:
    """Per-path arrays of the solve at x read by the BEL and pathwise
    reductions, all on the driving Brownian representation."""

    weights: np.ndarray  # Girsanov weights, (N,)
    terminal: np.ndarray  # Brownian values at T, (N,)
    variation: np.ndarray  # dX/dx at every node, (M+1, N); row M at T
    law_table: np.ndarray  # dxb at the left points, (M, N)
    drive: np.ndarray  # driving increments dB - b dt, (M, N)


class DeltaSession:
    """One delta computation at (spec, x, grid, N, seed, config).

    Owns the Picard solves every estimator reads and runs each at most
    once, on first use: the solve at x (for the Girsanov weights and the
    first variation) and, per bump h, the pair at x +/- h (for the law
    derivative and the finite difference). With the default bumps that is
    3 solves for BEL, pathwise and finite difference together; 5 when the
    finite-difference and law bumps differ; 1 for BEL or pathwise alone
    when the law derivative is supplied or the drift ignores the law.

    All solves ride one Philox draw started at 0: sample_brownian adds the
    start to the cumulative sums, so shifting that draw gives the ensemble
    of any start bit for bit. The weights, cumulants, first variation and
    law-derivative table are computed once, when BEL or pathwise first asks.

    `dxb` is the law derivative BEL and pathwise use, any (s, y) -> array
    callable; left None it is bump estimated at `law_bump` unless the drift
    ignores the law.
    """

    def __init__(self, spec: DriftSpec, start: float, grid: TimeGrid,
                 n_paths: int, seed: SeedSpec,
                 config: PicardConfig = PicardConfig(),
                 dxb: Optional[SpaceTimeFn] = None,
                 law_bump: Optional[float] = None):
        self.spec = spec
        self.start = start
        self.grid = grid
        self.n_paths = n_paths
        self.seed = seed
        self.config = config
        self._dxb = dxb
        self._law_bump = law_bump
        self._draw: Optional[PathEnsemble] = None
        # flow and terminal values of each solve, keyed by its start
        self._runs: dict[float, tuple[MeasureFlow, np.ndarray]] = {}
        self._terms: Optional[_PathTerms] = None

    # -- solves ------------------------------------------------------------

    def _solve(self, start: float) -> SolveResult:
        if self._draw is None:
            self._draw = sample_brownian(self.grid, self.n_paths, 0.0,
                                         self.seed)
        brownian = PathEnsemble(grid=self.grid,
                                values=self._draw.values + start,
                                kind="brownian", start=start, seed=self.seed)
        return picard_solve(self.spec, start, self.grid, self.n_paths,
                            self.seed, self.config, brownian=brownian)

    def _run(self, start: float) -> tuple[MeasureFlow, np.ndarray]:
        """Flow and terminal values of the solve at start, solved on first
        use."""
        if start not in self._runs:
            result = self._solve(start)
            # terminal() is a view that would pin the whole path array
            self._runs[start] = (result.flow,
                                 result.ensemble.terminal().copy())
        return self._runs[start]

    def _bump(self, h: Optional[float]) -> float:
        h = default_bump(self.start) if h is None else float(h)
        if h <= 0:
            raise ValueError(f"bump must be positive, got {h}")
        return h

    def law_derivative(self, h: Optional[float] = None) -> SpaceTimeFn:
        """Bump-estimated dxb from the flows at x +/- h (see law_derivative),
        as an (s, y) -> array closure that snaps s to the nearest node."""
        h = self._bump(h)
        # the closure holds the two flows only, not the session's arrays
        flow_p = self._run(self.start + h)[0]
        flow_m = self._run(self.start - h)[0]
        spec, grid = self.spec, self.grid

        def call(s: float, y: np.ndarray) -> np.ndarray:
            k = grid.index_of(float(s))
            t_k = float(grid.nodes[k])
            y = np.asarray(y, dtype=float)
            return (spec.fn(t_k, y, flow_p[k])
                    - spec.fn(t_k, y, flow_m[k])) / (2 * h)

        return call

    def _law_feedback(self) -> Optional[SpaceTimeFn]:
        if self._dxb is None and self.spec.law_lipschitz_const != 0.0:
            self._dxb = self.law_derivative(self._law_bump)
        return self._dxb

    def _path_terms(self) -> _PathTerms:
        if self._terms is not None:
            return self._terms
        dxb = self._law_feedback()
        solved = self._solve(self.start)
        brownian = solved.brownian
        fb = drift_along_paths(self.spec, solved.flow, brownian)
        del solved  # the solution paths and flows are not read again
        dt = self.grid.dt
        db = brownian.increments()
        w = guarded_exp(log_weights(fb, db, dt))
        c = cumulative_integral(fb, db)
        # driving increments of the solution in this representation
        drive = db - fb[:-1] * dt
        del fb, db

        table = law_derivative_table(dxb, brownian)
        self._terms = _PathTerms(
            weights=w, terminal=brownian.terminal().copy(),
            variation=variation_path(c, table, dt), law_table=table,
            drive=drive)
        return self._terms

    @property
    def weights(self) -> np.ndarray:
        """Girsanov weights of the solve at x along the driving paths."""
        return self._path_terms().weights

    @property
    def first_variation(self) -> np.ndarray:
        """dX_{t_k}/dx along the driving paths, shape (M+1, N)."""
        return self._path_terms().variation

    # -- estimators --------------------------------------------------------

    def bel(self, payoff: Payoff,
            weight: Optional[WeightFunctionA] = None) -> EstimatorResult:
        """Integration-by-parts delta; see bel_delta."""
        weight = uniform_weight(self.grid.horizon) if weight is None \
            else weight
        weight.validate(self.grid)
        terms = self._path_terms()
        nodes = self.grid.nodes[:-1]
        a_vals = np.asarray(weight.fn(nodes), dtype=float)
        big_a = np.asarray(weight.integral(nodes), dtype=float)
        integrand = (a_vals[:, None] * terms.variation[:-1]
                     + terms.law_table * big_a[:, None])
        ito = np.einsum("kj,kj->j", integrand, terms.drive)
        samples = (terms.weights
                   * np.asarray(payoff.fn(terms.terminal), dtype=float) * ito)
        est, se = mean_and_se(samples)
        meta = {"weight_mean": float(terms.weights.mean()),
                "weight_name": weight.name, "payoff": payoff.name}
        return EstimatorResult(label=f"bel[{weight.name}]", estimate=est,
                               stderr=se, extra=meta)

    def pathwise(self, payoff: Payoff) -> EstimatorResult:
        """E[payoff'(X_T) dX_T/dx]; see pathwise_delta."""
        if payoff.derivative is None:
            raise ValueError(f"payoff '{payoff.name}' has no derivative")
        terms = self._path_terms()
        dphi = np.asarray(payoff.derivative(terms.terminal), dtype=float)
        est, se = mean_and_se(terms.weights * dphi * terms.variation[-1])
        return EstimatorResult(label="pathwise", estimate=est, stderr=se,
                               extra={"payoff": payoff.name})

    def finite_difference(self, payoff: Payoff, h: Optional[float] = None
                          ) -> EstimatorResult:
        """Central difference of the solves at x +/- h; see
        finite_difference_delta."""
        h = self._bump(h)
        terminal_p = self._run(self.start + h)[1]
        terminal_m = self._run(self.start - h)[1]
        diff = (np.asarray(payoff.fn(terminal_p), dtype=float)
                - np.asarray(payoff.fn(terminal_m), dtype=float))
        est, se = mean_and_se(diff / (2.0 * h))
        return EstimatorResult(label="finite_difference", estimate=est,
                               stderr=se,
                               extra={"payoff": payoff.name, "h": h})


# ---------------------------------------------------------------------------
# one-shot estimators
# ---------------------------------------------------------------------------

def law_derivative(spec: DriftSpec, start: float, grid: TimeGrid,
                   n_paths: int, seed: SeedSpec, h: Optional[float] = None,
                   config: PicardConfig = PicardConfig()) -> SpaceTimeFn:
    """Central difference of the drift through the law in the initial point.

    Runs picard_solve at x + h and x - h with the same seed, so both flows
    ride the same Brownian ensemble and the difference isolates the response
    of the law to the initial point:

        dxb(s, y) ~= ( b(s, y, law^+_s) - b(s, y, law^-_s) ) / (2 h).

    Drifts with no law dependence give exactly zero by cancellation.
    """
    return DeltaSession(spec, start, grid, n_paths, seed,
                        config).law_derivative(h)


def bel_delta(spec: DriftSpec, start: float, grid: TimeGrid, n_paths: int,
              seed: SeedSpec, payoff: Payoff,
              weight: Optional[WeightFunctionA] = None,
              dxb: Optional[SpaceTimeFn] = None,
              law_bump: Optional[float] = None,
              config: PicardConfig = PicardConfig()) -> EstimatorResult:
    """Delta d/dx E[payoff(X_T^x)] via the integration-by-parts weight.

    Needs no payoff derivative. The law derivative is bump estimated from
    two extra common-random-number solves unless one is supplied. `weight`
    defaults to the uniform a = 1/T; estimates must agree across admissible
    weights within statistical error.
    """
    return DeltaSession(spec, start, grid, n_paths, seed, config,
                        dxb=dxb, law_bump=law_bump).bel(payoff, weight)


def pathwise_delta(spec: DriftSpec, start: float, grid: TimeGrid,
                   n_paths: int, seed: SeedSpec, payoff: Payoff,
                   dxb: Optional[SpaceTimeFn] = None,
                   law_bump: Optional[float] = None,
                   config: PicardConfig = PicardConfig()
                   ) -> EstimatorResult:
    """Delta as E[payoff'(X_T) dX_T/dx] for differentiable payoffs.

    Uses the first-variation path on the Brownian representation and the
    Girsanov weights of the same run.
    """
    return DeltaSession(spec, start, grid, n_paths, seed, config,
                        dxb=dxb, law_bump=law_bump).pathwise(payoff)


def finite_difference_delta(spec: DriftSpec, start: float, grid: TimeGrid,
                            n_paths: int, seed: SeedSpec, payoff: Payoff,
                            h: Optional[float] = None,
                            config: PicardConfig = PicardConfig()
                            ) -> EstimatorResult:
    """Central difference of two solves at x +/- h, common random numbers."""
    return DeltaSession(spec, start, grid, n_paths, seed,
                        config).finite_difference(payoff, h)


# ---------------------------------------------------------------------------
# mollified drift convergence study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MollifyStudy:
    """Terminal-value convergence of mollified drifts toward the target."""

    levels: tuple[int, ...]
    mean_square_gap: tuple[float, ...]
    gap_stderr: tuple[float, ...]
    terminal_w1: tuple[float, ...]
    monotone_within_noise: bool
    rate_slope: float  # fitted slope of log sqrt(msd) vs log(1/n); report only


def mollified_convergence_study(spec: DriftSpec, start: float, grid: TimeGrid,
                                n_paths: int, seed: SeedSpec,
                                levels: Sequence[int] = (4, 16, 64, 256),
                                config: PicardConfig = PicardConfig()
                                ) -> MollifyStudy:
    """Solve with the drift mollified at each bandwidth 1/n, same noise.

    Reports E|X_T^n - X_T|^2 with its standard error and the terminal W1
    distance per level, whether the mean-square gap is nonincreasing within
    Monte Carlo noise, and a fitted convergence slope (diagnostic only; the
    square-root law it is compared against is a bound, not an asymptote).
    """
    if len(levels) < 2 or any(n < 1 for n in levels):
        raise ValueError("levels must be at least two bandwidth parameters")
    base = picard_solve(spec, start, grid, n_paths, seed, config)
    x_t = base.ensemble.terminal()
    msd, ses, w1s = [], [], []
    for n in levels:
        res = picard_solve(mollify(spec, int(n)), start, grid, n_paths, seed,
                           config, brownian=base.brownian)
        gap = (res.ensemble.terminal() - x_t) ** 2
        m, se = mean_and_se(gap)
        msd.append(m)
        ses.append(se)
        w1s.append(kantorovich(res.flow[grid.steps], base.flow[grid.steps]))
    monotone = all(
        msd[j + 1] <= msd[j] + 3.0 * (ses[j] + ses[j + 1])
        for j in range(len(levels) - 1)
    )
    dist = np.sqrt(np.maximum(msd, 1e-300))
    slope = loglog_slope(1.0 / np.asarray(levels, dtype=float), dist)
    return MollifyStudy(
        levels=tuple(int(n) for n in levels),
        mean_square_gap=tuple(msd), gap_stderr=tuple(ses),
        terminal_w1=tuple(w1s), monotone_within_noise=monotone,
        rate_slope=slope,
    )
