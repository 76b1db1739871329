"""Independent reference values used by the test suite.

Everything here is computed by a route that shares no code with the
package: brute-force ODE integration, closed-form Gaussian moment
identities, and the dual (Lipschitz-witness) characterization of the
Kantorovich distance. Tests compare package output against these. The
five references at the end are the exceptions: the particle-major layout and
the whole-table delta route built on it share the Philox blocks, the drift
evaluators and the law derivatives with the package, but none of its code
over the nodes; the forward-substitution law gradient reads a solve's node
laws and draw, and none of the package's code over the nodes either; the
two-flow Picard iteration is built from the package's public one-sweep
functions, and checks only how picard_solve chains them; the two-search
step function is the earlier evaluation of a StepFunction, which the
one-search evaluation must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from mfsde import (MeasureFlow, dirac, euler_under_flow, flow_distance,
                   sample_brownian)
from mfsde.numerics import mean_and_se


def ou_mean_ode(theta: float, kappa: float, x: float, t: float,
                steps: int = 10_000) -> float:
    """Mean of the linear mean-field model by brute-force ODE integration.

    The mean m(t) of dX = (-theta X + kappa E[X]) dt + dB satisfies
    m' = (kappa - theta) m, m(0) = x. Integrated with a plain Euler
    sub-stepping so the value is independent of the closed form
    x exp((kappa - theta) t) it is compared against.
    """
    m = x
    dt = t / steps
    for _ in range(steps):
        m += (kappa - theta) * m * dt
    return m


def discrete_ou_mean(theta: float, kappa: float, x: float, horizon: float,
                     steps: int) -> float:
    """Exact mean of the Euler-discretized fixed point on M steps.

    The empirical-mean recursion of the discrete system is
    m_{k+1} = (1 + (kappa - theta) dt) m_k plus a zero-mean noise term,
    so the expected terminal mean is x (1 + (kappa - theta) dt)^M. This
    is the right target when checking the discrete system itself rather
    than its continuous limit.
    """
    dt = horizon / steps
    return x * (1.0 + (kappa - theta) * dt) ** steps


def dual_w1(xs: np.ndarray, ys: np.ndarray) -> float:
    """Kantorovich distance via its optimal 1-Lipschitz witness.

    Builds f with f' = sign(F - G) on the merged support (F, G the two
    empirical CDFs) and returns |E_mu f - E_nu f|, which attains the
    supremum in the dual formulation. Independent of the CDF-area route.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    grid = np.sort(np.concatenate([xs, ys]))
    fx = np.searchsorted(xs, grid, side="right") / xs.size
    gx = np.searchsorted(ys, grid, side="right") / ys.size
    # witness values at the merged points; f(grid[0]) = 0
    gaps = np.diff(grid)
    slopes = np.sign(fx[:-1] - gx[:-1])
    f_at = np.concatenate([[0.0], np.cumsum(slopes * gaps)])
    mu_f = np.interp(xs, grid, f_at).mean()
    nu_f = np.interp(ys, grid, f_at).mean()
    return abs(mu_f - nu_f)


def gaussian_weight_moment(c: float, horizon: float, power: float) -> float:
    """E[w^p] for the exponential weight of a constant drift c.

    With w = exp(c B_T - c^2 T / 2) and E[exp(a B_T)] = exp(a^2 T / 2),
    E[w^p] = exp((p^2 - p) c^2 T / 2).
    """
    return math.exp((power * power - power) * c * c * horizon / 2.0)


def expectation_square_law_derivative(theta: float, kappa: float, x: float,
                                      s: float, steps: int = 20_000) -> float:
    """d/dx of the drift's law term for the squared-expectation model.

    For b(t, y, mu) = -theta y + kappa E[Z^2], the moments of the
    solution satisfy the closed ODE system
        m' = -theta m + kappa q
        q' = -2 theta q + 2 kappa q m + 1
    with m(0) = x, q(0) = x^2, and their x-derivatives (g, r) satisfy the
    variational system
        g' = -theta g + kappa r
        r' = -2 theta r + 2 kappa (r m + q g)
    with g(0) = 1, r(0) = 2x. The law derivative of the drift at time s
    is kappa r(s), independent of y. Integrated with RK4.
    """
    def rhs(state):
        m, q, g, r = state
        return np.array([
            -theta * m + kappa * q,
            -2.0 * theta * q + 2.0 * kappa * q * m + 1.0,
            -theta * g + kappa * r,
            -2.0 * theta * r + 2.0 * kappa * (r * m + q * g),
        ])

    state = np.array([x, x * x, 1.0, 2.0 * x])
    dt = s / steps
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * dt * k1)
        k3 = rhs(state + 0.5 * dt * k2)
        k4 = rhs(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return kappa * state[3]


def mollified_sign_l1_gap(smoothed, alpha: float, n: int,
                          points: int = 200_001) -> float:
    """L1 distance between a smoothed sign drift and alpha*sign on [-1, 1].

    Evaluated by midpoint quadrature on a fine grid; the kernel has
    support 1/n, so the exact gap is below 2 alpha / n.
    """
    z = np.linspace(-1.0, 1.0, points)
    mid = 0.5 * (z[:-1] + z[1:])
    dz = z[1] - z[0]
    diff = np.abs(smoothed(mid) - alpha * np.sign(mid))
    return float(np.sum(diff) * dz)


# ---------------------------------------------------------------------------
# particle-major path layout: paths shaped (N, M+1), one row per path
# ---------------------------------------------------------------------------
#
# The package stores paths time-major, (M+1, N). These are the routines of
# the earlier particle-major layout, kept as a test-only reference: the
# time-major arrays must be their transposes bit for bit.

def particle_major_brownian(grid, n_paths: int, start: float, seed,
                            block_size: int) -> np.ndarray:
    """x + B_{t_k} at [i, k]: each Philox block drawn particle-major into
    its rows, scaled, and summed along the paths with np.cumsum."""
    steps = grid.steps
    dw = np.empty((n_paths, steps))
    n_blocks = (n_paths + block_size - 1) // block_size
    for j in range(n_blocks):
        lo = j * block_size
        hi = min(lo + block_size, n_paths)
        block = seed.block_generator(j).standard_normal((block_size, steps))
        dw[lo:hi] = block[: hi - lo]
    dw *= math.sqrt(grid.dt)
    values = np.empty((n_paths, grid.steps + 1))
    values[:, 0] = start
    np.cumsum(dw, axis=1, out=values[:, 1:])
    values[:, 1:] += start
    return values


def particle_major_euler(spec, flow, brownian_values: np.ndarray, grid,
                         start: float) -> np.ndarray:
    """Euler under the frozen flow, one strided column per step:
    X_{k+1} = X_k + b(t_k, X_k, flow_k) dt + dB_k."""
    dt = grid.dt
    x = start
    db = np.diff(brownian_values, axis=1)
    values = np.empty_like(brownian_values)
    values[:, 0] = x
    state = values[:, 0].copy()
    for k in range(grid.steps):
        b = spec.fn(float(grid.nodes[k]), state, spec.law(flow.atoms[k]))
        state = state + b * dt + db[:, k]
        values[:, k + 1] = state
    return values


def particle_major_cumulative_pieces(fvals: np.ndarray, v: np.ndarray,
                                     start: float, grid
                                     ) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
    """Forward, backward and correction local-time sums from node 0 to k
    along Brownian paths v, each (N, M+1), by np.cumsum along the paths."""
    dt = grid.dt
    x = start

    db = np.diff(v, axis=1)
    cf = np.zeros_like(v)
    np.cumsum(fvals[:, :-1] * db, axis=1, out=cf[:, 1:])

    # reversal drift ratio Bh / (T - u) at original nodes 1..M
    ratio = (v[:, 1:] - x) / grid.nodes[1:]
    g_corr = -fvals[:, 1:] * ratio * dt
    # reversed-path increment at node k' is v[k'-1] - v[k'] = -db[k'-1]
    g_back = fvals[:, 1:] * (-db + ratio * dt)

    cb = np.zeros_like(v)
    np.cumsum(g_back, axis=1, out=cb[:, 1:])
    cc = np.zeros_like(v)
    np.cumsum(g_corr, axis=1, out=cc[:, 1:])
    return cf, cb, cc


def particle_major_covariation(fvals: np.ndarray, v: np.ndarray
                               ) -> np.ndarray:
    """Minus the discrete quadratic covariation of f(., B) and B from node 0
    to k along Brownian paths v, (N, M+1), by np.cumsum along the paths;
    column 0 is +0.0."""
    c = np.zeros_like(v)
    np.cumsum(np.diff(fvals, axis=1) * np.diff(v, axis=1), axis=1,
              out=c[:, 1:])
    np.negative(c[:, 1:], out=c[:, 1:])
    return c


def particle_major_variation(c: np.ndarray, table: np.ndarray,
                             dt: float) -> np.ndarray:
    """dX/dx at every node, (N, M+1), from the cumulants C and the (N, M)
    law-derivative table by variation of constants."""
    exp_neg = np.exp(-c)
    response = np.exp(c[:, :-1]) * table * dt
    running = np.zeros_like(exp_neg)
    np.cumsum(response, axis=1, out=running[:, 1:])
    running += 1.0
    running *= exp_neg
    return running


# ---------------------------------------------------------------------------
# the delta session by whole tables, shaped (M+1, N) and (M, N)
# ---------------------------------------------------------------------------
#
# DeltaSession forms its BEL and pathwise samples in one walk over the nodes
# that holds O(N) state. These are whole-table routines built from the
# particle-major references above and np.einsum, kept as a test-only
# reference: the session must give their bits.

def drift_table(spec, flow, paths) -> np.ndarray:
    """b(t_k, path value, flow_k) at every node and path, (M+1, N), one
    spec.fn call per node under the law summary of the flow's row."""
    grid = paths.grid
    out = np.empty_like(paths.values)
    for k in range(grid.steps + 1):
        out[k] = spec.fn(float(grid.nodes[k]), paths.values[k],
                         spec.law(flow.atoms[k]))
    return out


def table_path_terms(spec, flow, brownian, dxb, drift_in_drive=True):
    """Weights, terminal values, the first variation (M+1, N), the law
    table (M, N) and the driving increments dB - b dt (M, N) of the paths
    `brownian` under `flow`. drift_in_drive=False drops the -b dt term, a
    broken drive the session must not match."""
    grid, dt = brownian.grid, brownian.grid.dt
    v = brownian.values.T
    fvals = drift_table(spec, flow, brownian).T
    table = np.zeros((v.shape[0], grid.steps))
    if dxb is not None:
        for j in range(grid.steps):
            table[:, j] = dxb(float(grid.nodes[j]), v[:, j])
    variation = particle_major_variation(
        particle_major_covariation(fvals, v), table, dt)
    # time-major from here on: np.einsum("kj,kj->j") over contiguous
    # (M, N) tables adds the rows in order
    fb = np.ascontiguousarray(fvals[:, :-1].T)
    db = np.diff(brownian.values, axis=0)
    weights = np.exp(np.einsum("kj,kj->j", fb, db)
                     - 0.5 * dt * np.einsum("kj,kj->j", fb, fb))
    drive = db - fb * dt if drift_in_drive else db
    return (weights, brownian.terminal().copy(),
            np.ascontiguousarray(variation.T),
            np.ascontiguousarray(table.T), drive)


def table_bel(terms, grid, payoff, weight) -> tuple[float, float]:
    """Mean and SE of the BEL samples: the Ito sum of the whole integrand
    table against the drive by np.einsum. A is the trapezoid sum of the
    density a up to each node, each rounded once by math.fsum, rather than
    read from weight.validate."""
    weights, terminal, variation, table, drive = terms
    a_nodes = np.asarray(weight.fn(grid.nodes), dtype=float)
    pieces = 0.5 * (a_nodes[1:] + a_nodes[:-1]) * np.diff(grid.nodes)
    a_vals = a_nodes[:-1]
    big_a = np.array([math.fsum(pieces[:k]) for k in range(grid.steps)])
    integrand = (a_vals[:, None] * variation[:-1]
                 + table * big_a[:, None])
    ito = np.einsum("kj,kj->j", integrand, drive)
    return mean_and_se(weights * np.asarray(payoff.fn(terminal), dtype=float)
                       * ito)


def table_pathwise(terms, payoff) -> tuple[float, float]:
    """Mean and SE of the pathwise samples w payoff'(B_T) dX_T/dx."""
    weights, terminal, variation = terms[:3]
    dphi = np.asarray(payoff.derivative(terminal), dtype=float)
    return mean_and_se(weights * dphi * variation[-1])


def forward_law_gradient(result, phi_primes) -> tuple[np.ndarray,
                                                      np.ndarray]:
    """g[k, i] = E[phi_i'(X_k) dX_k/dx] and its SE at every node k < M of
    a solve whose drift reads m_i = E[phi_i(X)], by forward substitution
    in one pass along its driving paths under its flow, with no bumped
    solve: g_k is the mean of w_k phi'(Y_k) V_k, w_k the running Girsanov
    weight, and

        V_k = exp(-C_k) (1 + sum_{j<k} exp(C_j) dxb_j dt),
        dxb_j(y) = sum_i d b / d m_i (t_j, y) g[j, i],

    so V_k needs g only at nodes before k. The partial derivatives of the
    drift in the m_i are written by hand per model, as the second entry of
    each (phi_i', d b / d m_i) pair of phi_primes."""
    spec, laws, paths = result.spec, result.laws, result.brownian.values
    grid = result.brownian.grid
    dt, nodes, n = grid.dt, grid.nodes, paths.shape[1]
    covar, logw, response = np.zeros(n), np.zeros(n), np.zeros(n)
    g = np.empty((grid.steps, len(phi_primes)))
    se = np.empty_like(g)
    f = spec.fn(float(nodes[0]), paths[0], laws[0])
    for k in range(grid.steps):
        y, db = paths[k], paths[k + 1] - paths[k]
        v = np.exp(covar) * (1.0 + response)
        w = np.exp(logw)
        for i, (dphi, _) in enumerate(phi_primes):
            g[k, i], se[k, i] = mean_and_se(w * dphi(y) * v)
        dxb = sum(dmb(y) * g[k, i] for i, (_, dmb) in enumerate(phi_primes))
        response += np.exp(-covar) * dxb * dt
        logw += f * db - 0.5 * f * f * dt
        f_next = spec.fn(float(nodes[k + 1]), paths[k + 1], laws[k + 1])
        covar += (f_next - f) * db
        f = f_next
    return g, se


# ---------------------------------------------------------------------------
# the Picard iteration by the public API, with a new flow every sweep
# ---------------------------------------------------------------------------
#
# picard_solve keeps one buffer and writes each node of the new states into
# it inside the Euler sweep, once the sweep has read that node of the frozen
# flow: sorted, or in path order while the sweep may be the last, to be
# sorted in place by the next. This reference keeps the frozen flow, the
# solution and the new flow apart, so it also hands back the flow the last
# sweep ran under; picard_solve must give its ensemble, flow and residual
# history bit for bit.

def reference_solve(spec, start: float, grid, n_paths: int, seed, config):
    """Solution ensemble, its flow, the frozen flow of the last sweep and
    the residual history of the Picard iteration: euler_under_flow under
    the frozen flow, MeasureFlow.from_ensemble of the output and
    flow_distance between the two, until the distance is below
    config.tolerance."""
    brownian = sample_brownian(grid, n_paths, start, seed)
    if config.initial_flow == "dirac":
        frozen = constant_flow(grid, dirac(start))
    else:
        frozen = MeasureFlow.from_ensemble(brownian)
    residuals = []
    while True:
        ensemble = euler_under_flow(spec, frozen, brownian)
        flow = MeasureFlow.from_ensemble(ensemble)
        residuals.append(flow_distance(flow, frozen))
        if residuals[-1] < config.tolerance:
            return ensemble, flow, frozen, tuple(residuals)
        assert len(residuals) < config.max_iterations, residuals
        frozen = flow


def flow_of(result) -> MeasureFlow:
    """The empirical law of a solve's solution at every node."""
    return MeasureFlow.from_ensemble(result.ensemble)


def flow_laws(spec, flow) -> list:
    """The law summary of every node of a flow, as SolveResult.laws holds
    them for the flow of a solve."""
    return [spec.law(row) for row in flow.atoms]


def constant_flow(grid, mu) -> MeasureFlow:
    """The flow equal to the EmpiricalMeasure mu at every node, as a
    read-only broadcast of its atoms (a Dirac start has one atom per
    row)."""
    return MeasureFlow(grid=grid, atoms=np.broadcast_to(
        mu.atoms, (grid.steps + 1, mu.size)))


# ---------------------------------------------------------------------------
# a step function by two searches over every state
# ---------------------------------------------------------------------------

def two_search_step(step, y) -> np.ndarray:
    """The value of a StepFunction at y by a left and a right search over
    every state: left + (C[lo] + C[hi]) / 2, C the running sum of the
    jumps in breakpoint order, lo / hi the breakpoints below / at or below
    y. Built from the step's public fields."""
    a = np.asarray(step.breakpoints, dtype=float)
    order = np.argsort(a, kind="stable")
    cumulative = np.zeros(a.size + 1)
    np.cumsum(np.asarray(step.jumps, dtype=float)[order], out=cumulative[1:])
    y = np.asarray(y, dtype=float)
    lo = np.searchsorted(a[order], y, side="left")
    hi = np.searchsorted(a[order], y, side="right")
    return step.left + 0.5 * (cumulative[lo] + cumulative[hi])
