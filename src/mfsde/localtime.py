"""Local-time-space integrals, without differentiating f.

In continuous time the integral of f against the local time of a Brownian
path in time and space has Eisenbaum's time-reversal decomposition: a
forward Ito integral, a backward Ito integral along the time-reversed path
(whose Brownian part is the reversed path plus its known drift), and a
correction integral against that drift:

    int_s^t int f(u, y) L(du, dy)
        = int_s^t f(u, B_u^x) dB_u
        + int_{T-t}^{T-s} f(T-u, Bh_u^x) dW_u
        - int_{T-t}^{T-s} f(T-u, Bh_u^x) (Bh_u / (T-u)) du

with Bh_u = B_{T-u} the reversed (centered) path and W its Brownian part,
dW = dBh + (Bh_u / (T-u)) du. The integral is minus the quadratic
covariation of f(., B) and B (Foellmer, Protter and Shiryaev, Bernoulli
1995; Eisenbaum, Potential Anal. 2000). On the grid, with left-point sums
in both directions of time, the drift terms of the backward and correction
sums cancel term by term and the decomposition telescopes to that
covariation,

    C_k = - sum_{j < k} (f_{j+1} - f_j) (B_{j+1} - B_j),

which is what the walk below accumulates; the integral over
[t_s, t_t] is C_t - C_s.

For smooth f the integral equals minus the time integral of the space
derivative of f along the path, which is the validation oracle. Because
every window is a difference of one running sum, the integral is exactly
additive over adjacent intervals, which makes the Malliavin derivative

    D_s X_t = exp( - int_s^t int b(u, y, law_u) L(du, dy) )

an exact cocycle under the discretization. The first variation is built
from the same cumulants by variation of constants,

    dX_{t_k}/dx = exp(-C_k) (1 + sum_{j < k} exp(C_j) dxb(t_j, Y_j) dt),

where C is the cumulative local-time integral of the drift and dxb, the
derivative of the drift in the initial point through the law, is any
(s, y) -> array callable.

Every one of these is a recurrence over the nodes, and _walk is their one
implementation: it walks the rows of a path array under an integrand with
O(N) state and carries the covariation C_k, the response sum behind the
first variation and the Girsanov sums. local_time_integral,
drift_cumulants, first_variation, check_chain_identity,
girsanov.doleans_weights and the delta session's estimators read it and
keep only what they return. Quantities for the solution process are
evaluated along the driving Brownian ensemble and transported by the
Girsanov weights; the identification holds in law, which is what the
expectation-level estimators need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .drift import DriftSpec, eval_drift
from .grid import (PathEnsemble, SeedSpec, _ShiftedDraw, make_grid,
                   sample_brownian)
from .numerics import _entries, _number, guarded_exp, loglog_slope
from .solver import SolveResult

# integrands and law derivatives along paths: (time, states) -> values
SpaceTimeFn = Callable[[float, np.ndarray], np.ndarray]
# integrands of the walk: (node, time, states) -> values
NodeFn = Callable[[int, float, np.ndarray], np.ndarray]


class _Node(NamedTuple):
    """What a walk knows at node k. Its arrays are never written after
    they are yielded, so a caller may keep them."""

    k: int
    y: np.ndarray                  # path values y_k
    f: np.ndarray                  # integrand f_k
    c: np.ndarray                  # covariation C_k
    db: Optional[np.ndarray]       # y_{k+1} - y_k; None at the last node
    dxb: Optional[np.ndarray]      # dxb(t_k, y_k); None at the last node
    v: Optional[np.ndarray]        # first variation V_k
    weights: Optional[np.ndarray]  # Girsanov weights, at the last node


def _walk(paths: PathEnsemble | _ShiftedDraw, f: NodeFn,
          stop: Optional[int] = None, dxb: Optional[SpaceTimeFn] = None,
          variation: bool = False, girsanov: bool = False
          ) -> Iterator[_Node]:
    """Walk the nodes k = 0..stop (M by default) of the paths under the
    integrand f, with O(N) state. The rows are read one at a time from
    paths._rows(), so a shifted draw is walked at its start without a
    shifted copy.

    Every node carries C_k = -sum_{j < k} (f_{j+1} - f_j)(y_{j+1} - y_j).
    With variation, it also carries the dxb row (zeros when dxb is None)
    and V_k = (S_k + 1) exp(-C_k), S_k = sum_{j < k} exp(C_j) dxb_j dt;
    with girsanov, the last node carries the weights
    exp(sum_k f_k db_k - 1/2 sum_k f_k^2 dt). Only these two exponentiate.
    The sums add rows in order from zeros, as np.einsum("kj,kj->j") does
    (tests/test_numerics.py pins its order); the covariation starts from
    -0.0, the identity of +, so its first term is copied as np.cumsum
    copies it, and C_0 = +0.0.
    """
    stop = paths.grid.steps if stop is None else stop
    nodes, dt, n = paths.grid.nodes, paths.grid.dt, paths.n_paths
    rows = paths._rows()
    covar = np.full(n, -0.0)
    response, no_dxb = np.zeros(n), np.zeros(n)
    s1, s2 = np.zeros(n), np.zeros(n)
    y = next(rows)
    fk = f(0, float(nodes[0]), y)
    for k in range(stop + 1):
        t = float(nodes[k])
        c = -covar
        last = k == stop
        y_next = None if last else next(rows)
        db = None if last else y_next - y
        dxb_k = v = weights = None
        if variation:
            v = (response + 1.0) * guarded_exp(-c)
            if not last:
                dxb_k = no_dxb if dxb is None else dxb(t, y)
                response += guarded_exp(c) * dxb_k * dt
        if girsanov:
            if last:
                weights = guarded_exp(s1 - 0.5 * dt * s2)
            else:
                s1 += fk * db
                s2 += fk * fk
        yield _Node(k, y, fk, c, db, dxb_k, v, weights)
        if last:
            return
        f_next = f(k + 1, float(nodes[k + 1]), y_next)
        covar += (f_next - fk) * db
        y, fk = y_next, f_next


# perfbench/traced.py reads this name
_cumulative_pieces = _walk


def _drift(spec: DriftSpec, laws: Sequence) -> NodeFn:
    """b(t_k, y, laws[k]) as an integrand of the walk, laws[k] being the
    law summary at node k (as SolveResult.laws holds them)."""
    return lambda k, t, y: eval_drift(spec, t, y, laws[k])


def _check_nodes(steps: int, s: int, t: int) -> None:
    _number(s, "s", 0, steps, integer=True)
    _number(t, "t", s, steps, integer=True)


def local_time_integral(f: SpaceTimeFn, paths: PathEnsemble, s: int,
                        t: int) -> np.ndarray:
    """Integrate f against the path local time over [t_s, t_t], per particle.

    Parameters
    ----------
    f : space-time function, vectorized over states
    paths : Brownian ensemble (the covariation is a Brownian identity)
    s, t : node indices with 0 <= s <= t <= steps

    Returns
    -------
    The (N,) integral C_t - C_s; at s = 0 it equals C_t bit for bit.
    """
    _check_nodes(paths.grid.steps, s, t)

    def integrand(k: int, u: float, y: np.ndarray) -> np.ndarray:
        out = f(u, y)
        if not np.isfinite(out).all():
            raise FloatingPointError("integrand non-finite along paths")
        return out

    for node in _walk(paths, integrand, stop=t):
        if node.k == s:
            c_s = node.c
    return node.c - c_s


def localtime_rate_study(horizon: float, step_counts: Sequence[int],
                         n_paths: int, start: float, seed: SeedSpec
                         ) -> tuple[list[float], list[float], float]:
    """RMS error of the local-time integral of sin against its smooth
    oracle (minus the time integral of cos along the path) per step count.

    The oracle is the trapezoid rule taken a row at a time, the terms
    dt (cos y_{k+1} + cos y_k) / 2 summed from the first, which has the
    bits of np.trapezoid over the (M+1, N) table of cos. The study draws
    once, at the largest step count, and reads each level as every r-th
    row of that draw, r = largest // steps, so the levels are coupled as in
    multilevel Monte Carlo and the study holds one path array and O(N)
    state. The step counts are two or more distinct integers >= 1, each
    dividing the largest, or ValueError is raised before the draw.

    Returns the step sizes, the errors and the fitted log-log slope of
    error against step size (about 0.5).
    """
    step_counts = _entries(step_counts, "step_counts", lo=1, integer=True)
    finest = max(step_counts)
    if not all(finest % steps == 0 for steps in step_counts):
        raise ValueError(f"step counts must be positive divisors of {finest}")
    draw = sample_brownian(make_grid(horizon, finest), n_paths, start, seed)
    dts, errors = [], []
    for steps in step_counts:
        grid = make_grid(horizon, steps)
        paths = PathEnsemble(grid, draw.values[::finest // steps], "brownian",
                             seed)
        got = local_time_integral(lambda t, y: np.sin(y), paths, 0, steps)
        # trapezoid in time of cos along each path
        cos_k = np.cos(paths.values[0])
        for k in range(steps):
            cos_next = np.cos(paths.values[k + 1])
            term = grid.dt * (cos_next + cos_k) / 2.0
            integral = term if k == 0 else integral + term
            cos_k = cos_next
        oracle = -integral
        dts.append(grid.dt)
        errors.append(float(np.sqrt(np.mean((got - oracle) ** 2))))
    return dts, errors, loglog_slope(dts, errors)


def drift_cumulants(result: SolveResult) -> np.ndarray:
    """Cumulative local-time integral of the drift along the driving paths.

    C[k] is the integral over [0, t_k] of b(u, y, flow_u) against the
    local time of the Brownian representation; differences of C give every
    subinterval, so the exponentials malliavin_derivative takes of them
    are exactly multiplicative.
    """
    c = np.empty_like(result.ensemble.values)
    for node in _walk(result.brownian, _drift(result.spec, result.laws)):
        c[node.k] = node.c
    return c


def malliavin_derivative(cumulants: np.ndarray, s: int,
                         t: int) -> np.ndarray:
    """Per-particle Malliavin derivative D_s X_t along the Brownian paths.

    D_s X_t = exp( - int_s^t int b(u, y, flow_u) L(du, dy) )
    = exp(-(C_t - C_s)) for the cumulant table C of drift_cumulants,
    evaluated on the driving ensemble; use the Girsanov weights of the same
    run when taking expectations against the solution law. Strictly
    positive by construction; exponents are guarded against overflow.
    """
    _check_nodes(cumulants.shape[0] - 1, s, t)
    return guarded_exp(-(cumulants[t] - cumulants[s]))


def first_variation(result: SolveResult,
                    dxb: Optional[SpaceTimeFn] = None) -> np.ndarray:
    """Per-particle first-variation path d/dx X_{t_k}, shape (M+1, N).

    Variation-of-constants form: the derivative of the flow map is the
    Malliavin factor from 0 plus the accumulated response to the derivative
    of the drift in the initial condition through the law,

        dX_t/dx = D_0 X_t + sum_{j < k} D_{t_j} X_{t_k} dxb(t_j, Y_j) dt,

    computed in O(M) per particle from shared cumulants. dxb is the
    law derivative (None means no law feedback, in which case the first
    variation equals D_0 X_t exactly).
    """
    v = np.empty_like(result.ensemble.values)
    for node in _walk(result.brownian, _drift(result.spec, result.laws),
                      dxb=dxb, variation=True):
        v[node.k] = node.v
    return v


@dataclass(frozen=True)
class ChainIdentityReport:
    """Residuals of the derivative chain rule and the cocycle property."""

    chain_rms: float
    chain_max: float
    cocycle_rms: float
    cocycle_max: float


def check_chain_identity(result: SolveResult, s: int, u: int, t: int,
                         dxb: Optional[SpaceTimeFn] = None
                         ) -> ChainIdentityReport:
    """Audit dX_t/dx = D_s X_t dX_s/dx + int_s^t D_r X_t dxb(r, Y_r) dr
    together with the cocycle D_s X_t = D_u X_t D_s X_u (s <= u <= t).

    Both identities hold exactly for the continuous objects; the report
    shows what is left of them after discretization (for the shared-cumulant
    scheme used here the residuals are at float roundoff level, which the
    closed-form oracles in the tests complement with genuine numerics).
    """
    _check_nodes(result.brownian.grid.steps, s, t)
    _number(u, "u", s, t, integer=True)
    dt = result.brownian.grid.dt
    # the cumulants and dxb rows of the window [s, t], with dX/dx at s
    rows, dxbs = [], []
    for node in _walk(result.brownian, _drift(result.spec, result.laws),
                      stop=t, dxb=dxb, variation=True):
        if node.k == s:
            v_s = node.v
        if node.k >= s:
            rows.append(node.c)
            dxbs.append(node.dxb)
    c = np.array(rows)
    width = t - s

    d_st = malliavin_derivative(c, 0, width)
    cocycle_res = d_st - (malliavin_derivative(c, u - s, width)
                          * malliavin_derivative(c, 0, u - s))

    integral = np.zeros(c.shape[1])
    for j in range(width):
        integral = (integral
                    + malliavin_derivative(c, j, width) * dxbs[j] * dt)
    chain_res = node.v - (d_st * v_s + integral)

    return ChainIdentityReport(
        chain_rms=float(np.sqrt(np.mean(chain_res ** 2))),
        chain_max=float(np.max(np.abs(chain_res))),
        cocycle_rms=float(np.sqrt(np.mean(cocycle_res ** 2))),
        cocycle_max=float(np.max(np.abs(cocycle_res))),
    )
