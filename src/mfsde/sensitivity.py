"""Sensitivity of E[payoff(X_T^x)] to the initial point x.

Three estimators of the same delta, each a method of DeltaSession:

* bel: integration-by-parts (Bismut-Elworthy-Li) weight. The delta is
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

* pathwise: E[ payoff'(X_T) dX_T/dx ] for differentiable payoffs.

* finite_difference: central difference of two full solves at x +/- h
  under common random numbers; the blunt baseline the other two must match.

A DeltaSession runs each Picard solve its estimators read once. Under the
frozen flow of the solve at x, every factor of BEL and pathwise is a
recurrence over time: the drift row, the local-time cumulant, the
log-weight sums, the first variation and the Ito sum. The session reads
the first four from the walk over the nodes in localtime, the one
implementation of each, and adds the Ito sum; it holds O(N) state, never
an (M+1, N) table. One estimate is one session and one method call.

The delta is x-almost-everywhere well defined; at an exceptional null set of
initial points (e.g. a payoff kink sitting exactly on an atom of the law)
the reported value is the version picked by the discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .drift import DriftSpec, mollify
from .girsanov import EstimatorResult
from .grid import PathEnsemble, SeedSpec, TimeGrid, sample_brownian
from .localtime import SpaceTimeFn, _drift, _Node, _walk
from .measures import MeasureFlow, kantorovich
from .numerics import loglog_slope, mean_and_se
from .solver import PicardConfig, picard_solve


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
# delta session: the solves and the pass over time the estimators share
# ---------------------------------------------------------------------------

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
    of any start bit for bit. Of each solve the session keeps the flow and
    the terminal values, so besides the draw it holds one path-sized array
    per solve.

    BEL and pathwise read one pass over the nodes along the driving paths
    under the flow of the solve at x: the walk of localtime, which holds
    O(N) state and carries the cumulant C_k, the variation V_k and the
    Girsanov weights, to which bel adds only its Ito sum. A pass keeps the
    weights, the terminal values and dX_T/dx, which pathwise reuses; each
    bel call runs its own pass for its weight function. The first
    variation table and the weights of the solve at x are
    first_variation(solve, session.law_derivative()) and doleans_weights
    of that solve, bit for bit.

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
        # weights, Brownian terminal values and dX_T/dx of the last pass
        self._terminal: Optional[tuple[np.ndarray, np.ndarray,
                                       np.ndarray]] = None

    # -- solves ------------------------------------------------------------

    def _brownian(self, start: float) -> PathEnsemble:
        if self._draw is None:
            self._draw = sample_brownian(self.grid, self.n_paths, 0.0,
                                         self.seed)
        return PathEnsemble(grid=self.grid, values=self._draw.values + start,
                            kind="brownian", start=start, seed=self.seed)

    def _run(self, start: float) -> tuple[MeasureFlow, np.ndarray]:
        """Flow and terminal values of the solve at start, solved on first
        use."""
        if start not in self._runs:
            result = picard_solve(self.spec, start, self.grid, self.n_paths,
                                  self.seed, self.config,
                                  brownian=self._brownian(start))
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
        """Central difference of the drift through the law in the initial
        point, as an (s, y) -> array closure that snaps s to the nearest
        node.

        Reads the solves at x + h and x - h, which ride the same Brownian
        ensemble, so the difference isolates the response of the law to
        the initial point:

            dxb(s, y) ~= ( b(s, y, law^+_s) - b(s, y, law^-_s) ) / (2 h).

        Drifts with no law dependence give exactly zero by cancellation.
        """
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

    # -- the pass over time ------------------------------------------------

    def _pass(self) -> Iterator[_Node]:
        """The walk over the driving paths draw_k + x under the flow of the
        solve at x, with the first variation and the Girsanov weights. It
        keeps the weights, the terminal values and dX_T/dx of its last
        node, which pathwise reuses."""
        dxb = self._law_feedback()
        flow = self._run(self.start)[0]
        for node in _walk(self._draw, _drift(self.spec, flow),
                          shift=self.start, law=dxb, variation=True,
                          girsanov=True):
            yield node
        self._terminal = (node.weights, node.y, node.v)

    # -- estimators --------------------------------------------------------

    def bel(self, payoff: Payoff,
            weight: Optional[WeightFunctionA] = None) -> EstimatorResult:
        """Delta d/dx E[payoff(X_T^x)] via the integration-by-parts weight.

        Needs no payoff derivative. The law derivative is bump estimated
        from the two common-random-number solves at x +/- law_bump unless
        the session was given one or the drift ignores the law. `weight`
        defaults to the uniform a = 1/T; estimates must agree across
        admissible weights within statistical error.
        """
        weight = uniform_weight(self.grid.horizon) if weight is None \
            else weight
        weight.validate(self.grid)
        nodes, dt = self.grid.nodes[:-1], self.grid.dt
        a_vals = np.asarray(weight.fn(nodes), dtype=float)
        big_a = np.asarray(weight.integral(nodes), dtype=float)
        # the Ito sum of (a_k V_k + dxb_k A_k)(dB_k - f_k dt)
        ito = np.zeros(self.n_paths)
        for node in self._pass():
            if node.db is not None:
                ito += ((a_vals[node.k] * node.v + node.law * big_a[node.k])
                        * (node.db - node.f * dt))
        weights, terminal, _ = self._terminal
        samples = (weights * np.asarray(payoff.fn(terminal), dtype=float)
                   * ito)
        est, se = mean_and_se(samples)
        meta = {"weight_mean": float(weights.mean()),
                "weight_name": weight.name, "payoff": payoff.name}
        return EstimatorResult(label=f"bel[{weight.name}]", estimate=est,
                               stderr=se, extra=meta)

    def pathwise(self, payoff: Payoff) -> EstimatorResult:
        """Delta as E[payoff'(X_T) dX_T/dx] for differentiable payoffs.

        Uses the first variation along the Brownian representation and the
        Girsanov weights of the same pass.
        """
        if payoff.derivative is None:
            raise ValueError(f"payoff '{payoff.name}' has no derivative")
        if self._terminal is None:
            for _ in self._pass():
                pass
        weights, terminal, variation = self._terminal
        dphi = np.asarray(payoff.derivative(terminal), dtype=float)
        est, se = mean_and_se(weights * dphi * variation)
        return EstimatorResult(label="pathwise", estimate=est, stderr=se,
                               extra={"payoff": payoff.name})

    def finite_difference(self, payoff: Payoff, h: Optional[float] = None
                          ) -> EstimatorResult:
        """Central difference of the solves at x +/- h.

        Both solves ride the same Brownian draw (common random numbers),
        so the noise of the two terminal values largely cancels; for a
        drift affine in the state and the mean, as in the mean-field OU
        model, the per-path quotient is constant and the standard error
        vanishes.
        """
        h = self._bump(h)
        terminal_p = self._run(self.start + h)[1]
        terminal_m = self._run(self.start - h)[1]
        diff = (np.asarray(payoff.fn(terminal_p), dtype=float)
                - np.asarray(payoff.fn(terminal_m), dtype=float))
        est, se = mean_and_se(diff / (2.0 * h))
        return EstimatorResult(label="finite_difference", estimate=est,
                               stderr=se,
                               extra={"payoff": payoff.name, "h": h})


# perfbench/traced.py looks these names up; ROADMAP item 1b deletes them
law_derivative = DeltaSession.law_derivative
bel_delta = DeltaSession.bel
pathwise_delta = DeltaSession.pathwise
finite_difference_delta = DeltaSession.finite_difference


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
