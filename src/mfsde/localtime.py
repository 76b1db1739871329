"""Local-time-space integrals by time reversal, without differentiating f.

The integral of f against the local time of a Brownian path in time and
space decomposes into three discretizable pieces: a forward Ito sum, a
backward Ito sum along the time-reversed path (whose Brownian increments are
reconstructed from the reversed path and its known drift), and a correction
integral against that drift:

    int_s^t int f(u, y) L(du, dy)
        = int_s^t f(u, B_u^x) dB_u
        + int_{T-t}^{T-s} f(T-u, Bh_u^x) dW_u
        - int_{T-t}^{T-s} f(T-u, Bh_u^x) (Bh_u / (T-u)) du

with Bh_u = B_{T-u} the reversed (centered) path and W its Brownian part,
dW = dBh + (Bh_u / (T-u)) du. All three pieces use left-point sums; in
reversed time the left points stay at least one step away from u = T, so
the drift ratio never divides by zero.

For smooth f the integral equals minus the time integral of the space
derivative of f along the path, which is the validation oracle. Because the
sums are left-point, the integral is exactly additive over adjacent
intervals, which makes the Malliavin derivative

    D_s X_t = exp( - int_s^t int b(u, y, law_u) L(du, dy) )

an exact cocycle under the discretization. The first variation is built
from the same cumulants by variation of constants,

    dX_{t_k}/dx = exp(-C_k) (1 + sum_{j < k} exp(C_j) dxb(t_j, Y_j) dt),

where C is the cumulative local-time integral of the drift and dxb, the
derivative of the drift in the initial point through the law, is any
(s, y) -> array callable. This module is the one place that composes it:
first_variation, check_chain_identity and the delta session all call
variation_path. Quantities for the solution process are evaluated along the
driving Brownian ensemble and transported by the Girsanov weights; the
identification holds in law, which is what the expectation-level estimators
need.
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


def _cumulative_pieces(fvals: np.ndarray,
                       paths: PathEnsemble) -> tuple[np.ndarray, np.ndarray,
                                                     np.ndarray]:
    """Cumulative forward / backward / correction sums from node 0 to k.

    Returns three (M+1, N) arrays cf, cb, cc with the convention that the
    piece over [node i, node j] is c[j] - c[i]. Forward contributions
    sit at left points k in [i, j); backward and correction contributions
    map to original nodes k' in (i, j] (left points of the reversed
    interval), where t_{k'} >= dt keeps the reversal drift finite.

    Each piece's terms are formed in place in rows 1..M of its output and
    summed there, with the bits of the plain expressions; the call holds
    four path-sized arrays besides its inputs at any time.
    """
    grid = paths.grid
    dt = grid.dt
    v = paths.values
    x = paths.start

    db = np.diff(v, axis=0)
    cf = np.zeros_like(v)
    np.multiply(fvals[:-1], db, out=cf[1:])
    running_sum(cf[1:], out=cf[1:])

    # reversal drift ratio Bh / (T - u) at original nodes 1..M
    ratio = np.subtract(v[1:], x)
    ratio /= grid.nodes[1:, None]
    # correction terms -f ratio dt
    cc = np.zeros_like(v)
    g_corr = np.negative(fvals[1:], out=cc[1:])
    g_corr *= ratio
    g_corr *= dt
    running_sum(g_corr, out=g_corr)
    # backward terms f dW, with dW = dBh + ratio dt the reversed-time
    # Brownian increment; the reversed-path increment at node k' is
    # dBh = v[k'-1] - v[k'] = -db[k'-1]
    ratio *= dt
    dw = np.negative(db, out=db)
    dw += ratio
    del ratio
    cb = np.zeros_like(v)
    g_back = np.multiply(fvals[1:], dw, out=cb[1:])
    running_sum(g_back, out=g_back)
    return cf, cb, cc


def cumulative_integral(fvals: np.ndarray, paths: PathEnsemble) -> np.ndarray:
    """C[k], the local-time integral over [0, t_k] of the integrand whose
    (M+1, N) node table is fvals; the integral over [t_s, t_t] is
    C[t] - C[s]."""
    cf, cb, cc = _cumulative_pieces(fvals, paths)
    # (cf + cb) + cc, summed in place
    cf += cb
    del cb
    cf += cc
    return cf


def _check_nodes(steps: int, s: int, t: int) -> None:
    if not (0 <= s <= t <= steps):
        raise ValueError(f"need 0 <= s <= t <= {steps}, got s={s}, t={t}")


def local_time_integral(f: SpaceTimeFn, paths: PathEnsemble, s: int,
                        t: int) -> np.ndarray:
    """Integrate f against the path local time over [t_s, t_t], per particle.

    Parameters
    ----------
    f : space-time function, vectorized over states
    paths : Brownian ensemble (the decomposition is a Brownian identity)
    s, t : node indices with 0 <= s <= t <= steps

    Returns
    -------
    The (N,) integral, the sum of the forward, backward and correction
    pieces over the window; at s = 0 it equals row t of
    cumulative_integral bit for bit.
    """
    if paths.kind != "brownian":
        raise ValueError("local-time integrals need a Brownian ensemble")
    _check_nodes(paths.grid.steps, s, t)
    fvals = paths.at_nodes(lambda k, u, y: f(u, y))
    if not np.isfinite(fvals).all():
        raise FloatingPointError("integrand non-finite along paths")
    cf, cb, cc = _cumulative_pieces(fvals, paths)
    return (cf[t] - cf[s]) + (cb[t] - cb[s]) + (cc[t] - cc[s])


def localtime_rate_study(horizon: float, step_counts: Sequence[int],
                         n_paths: int, start: float, seed: SeedSpec,
                         workers: int = 1
                         ) -> tuple[list[float], list[float], float]:
    """RMS error of the local-time integral of sin against its smooth
    oracle (minus the time integral of cos along the path) per step count.

    Returns the step sizes, the errors and the fitted log-log slope of
    error against step size (about 0.5).
    """
    dts, errors = [], []
    for steps in step_counts:
        grid = make_grid(horizon, steps)
        paths = sample_brownian(grid, n_paths, start, seed, workers=workers)
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
        result.brownian)


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
