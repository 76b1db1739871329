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

which is what cumulative_integral computes; the integral over
[t_s, t_t] is C_t - C_s.

For smooth f the integral equals minus the time integral of the space
derivative of f along the path, which is the validation oracle. Because
every window is a difference of rows of one running sum, the integral is
exactly additive over adjacent intervals, which makes the Malliavin
derivative

    D_s X_t = exp( - int_s^t int b(u, y, law_u) L(du, dy) )

an exact cocycle under the discretization. The first variation is built
from the same cumulants by variation of constants,

    dX_{t_k}/dx = exp(-C_k) (1 + sum_{j < k} exp(C_j) dxb(t_j, Y_j) dt),

where C is the cumulative local-time integral of the drift and dxb, the
derivative of the drift in the initial point through the law, is any
(s, y) -> array callable. This module is the one place that composes the
table: first_variation, check_chain_identity and the delta session's
first_variation all call variation_path (the session's estimators form the
same recurrence one node at a time, with the same bits). Quantities for
the solution process are evaluated along the driving Brownian ensemble and
transported by the Girsanov weights; the identification holds in law,
which is what the expectation-level estimators need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .girsanov import drift_along_paths
from .grid import PathEnsemble, SeedSpec, make_grid, sample_brownian
from .numerics import guarded_exp, loglog_slope, running_sum
from .solver import SolveResult

# integrands and law derivatives along paths: (time, states) -> values
SpaceTimeFn = Callable[[float, np.ndarray], np.ndarray]


def cumulative_integral(fvals: np.ndarray, db: np.ndarray) -> np.ndarray:
    """C[k], the local-time integral over [0, t_k] of the integrand whose
    (M+1, N) node table is fvals, along the paths whose (M, N) increments
    are db; the integral over [t_s, t_t] is C[t] - C[s].

    The terms are formed in rows 1..M of the output and summed there; the
    call holds no path-sized array besides its inputs and the output.
    """
    c = np.zeros_like(fvals)
    terms = np.subtract(fvals[1:], fvals[:-1], out=c[1:])
    terms *= db
    running_sum(terms, out=terms)
    # row 0 stays +0.0, so a window from node 0 is its row bit for bit
    np.negative(terms, out=terms)
    return c


# perfbench/traced.py is the only reader of this name
_cumulative_pieces = cumulative_integral


def _check_nodes(steps: int, s: int, t: int) -> None:
    if not (0 <= s <= t <= steps):
        raise ValueError(f"need 0 <= s <= t <= {steps}, got s={s}, t={t}")


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
    The (N,) integral C[t] - C[s] of the cumulant table of
    cumulative_integral; at s = 0 it equals row t bit for bit.
    """
    if paths.kind != "brownian":
        raise ValueError("local-time integrals need a Brownian ensemble")
    _check_nodes(paths.grid.steps, s, t)
    fvals = paths.at_nodes(lambda k, u, y: f(u, y))
    if not np.isfinite(fvals).all():
        raise FloatingPointError("integrand non-finite along paths")
    c = cumulative_integral(fvals, paths.increments())
    return c[t] - c[s]


def localtime_rate_study(horizon: float, step_counts: Sequence[int],
                         n_paths: int, start: float, seed: SeedSpec
                         ) -> tuple[list[float], list[float], float]:
    """RMS error of the local-time integral of sin against its smooth
    oracle (minus the time integral of cos along the path) per step count.

    Returns the step sizes, the errors and the fitted log-log slope of
    error against step size (about 0.5).
    """
    dts, errors = [], []
    for steps in step_counts:
        grid = make_grid(horizon, steps)
        paths = sample_brownian(grid, n_paths, start, seed)
        got = local_time_integral(lambda t, y: np.sin(y), paths, 0, steps)
        # trapezoid in time of cos along each path
        oracle = -np.trapezoid(np.cos(paths.values), dx=grid.dt, axis=0)
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
    return cumulative_integral(
        drift_along_paths(result.spec, result.flow, result.brownian),
        result.brownian.increments())


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


def law_derivative_table(dxb: Optional[SpaceTimeFn],
                         paths: PathEnsemble) -> np.ndarray:
    """dxb(t_j, path value at j) at the left points j < M, shape (M, N).

    All zeros when dxb is None (no law feedback).
    """
    if dxb is None:
        return np.zeros((paths.grid.steps, paths.n_paths))
    return paths.at_nodes(lambda k, t, y: dxb(t, y), count=paths.grid.steps)


def variation_path(c: np.ndarray, table: np.ndarray,
                   dt: float) -> np.ndarray:
    """dX/dx at every node, (M+1, N), by variation of constants from the
    cumulants C and the law-derivative table; row M is dX_T/dx."""
    exp_neg = guarded_exp(-c)
    response = guarded_exp(c[:-1]) * table * dt
    running = np.zeros_like(exp_neg)
    running_sum(response, out=running[1:])
    del response
    # exp(-C_k) (1 + sum_{j < k} response_j) in place, sparing a path-sized
    # temporary; + and * commute, so the bits are those of the expression
    running += 1.0
    running *= exp_neg
    return running


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
    c = drift_cumulants(result)
    table = law_derivative_table(dxb, result.brownian)
    return variation_path(c, table, result.brownian.grid.dt)


@dataclass(frozen=True)
class ChainIdentityReport:
    """Residuals of the derivative chain rule and the cocycle property."""

    s_node: int
    u_node: int
    t_node: int
    chain_rms: float
    chain_max: float
    cocycle_rms: float
    cocycle_max: float
    n_paths: int


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
    if not (0 <= s <= u <= t <= result.brownian.grid.steps):
        raise ValueError(f"need 0 <= s <= u <= t, got ({s}, {u}, {t})")
    dt = result.brownian.grid.dt
    c = drift_cumulants(result)
    table = law_derivative_table(dxb, result.brownian)
    fv = variation_path(c, table, dt)

    d_st = malliavin_derivative(c, s, t)
    cocycle_res = d_st - (malliavin_derivative(c, u, t)
                          * malliavin_derivative(c, s, u))

    integral = np.zeros(c.shape[1])
    for j in range(s, t):
        integral = integral + malliavin_derivative(c, j, t) * table[j] * dt
    chain_res = fv[t] - (d_st * fv[s] + integral)

    return ChainIdentityReport(
        s_node=s, u_node=u, t_node=t,
        chain_rms=float(np.sqrt(np.mean(chain_res ** 2))),
        chain_max=float(np.max(np.abs(chain_res))),
        cocycle_rms=float(np.sqrt(np.mean(cocycle_res ** 2))),
        cocycle_max=float(np.max(np.abs(cocycle_res))),
        n_paths=c.shape[1],
    )
