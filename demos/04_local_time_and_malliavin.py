"""Local-time-space integrals and derivative weights without derivatives.

The engine never differentiates the drift in space. Integrals of a function
against the Brownian local time are computed as minus the discrete
quadratic covariation of f(., B) and B, which is what the forward,
time-reversed and correction sums telescope to on the grid; Malliavin
derivatives and first-variation paths then come out as exponentials of such
integrals. The demo verifies the machinery against closed forms:

  * f(t, y) = y integrates to minus the realized quadratic variation,
  * smooth f matches -int d/dy f(u, B_u) du at the Euler rate,
  * for the mean-field OU drift, D_s X_t = exp(-theta (t - s)),
  * the cocycle D_s X_t = D_u X_t D_s X_u holds to roundoff.

Run:
  python demos/04_local_time_and_malliavin.py
"""

from __future__ import annotations

import numpy as np

from mfsde import (SeedSpec, check_chain_identity, drift_cumulants,
                   first_variation, local_time_integral, make_grid,
                   malliavin_derivative, mean_field_ou, picard_solve,
                   sample_brownian)

THETA, KAPPA = 1.0, 0.5


def main() -> None:
    grid = make_grid(horizon=1.0, steps=400)
    seed = SeedSpec(20240305)
    paths = sample_brownian(grid, n_paths=20_000, start=0.0, seed=seed)

    print("== closed-form checks on the Brownian ensemble ==")
    res = local_time_integral(lambda t, y: y, paths, 0, grid.steps)
    qv = np.sum(paths.increments() ** 2, axis=0)
    print(f"f(t,y)=y:   max |integral + QV| = "
          f"{np.max(np.abs(res + qv)):.2e}   (identity, exact)")

    res = local_time_integral(lambda t, y: 1.0 + 0.0 * y, paths, 50, 350)
    print(f"f(t,y)=1:   max |integral| = {np.max(np.abs(res)):.2e}"
          f"   (constants integrate to zero)")

    smooth = local_time_integral(lambda t, y: np.sin(y), paths, 0, grid.steps)
    oracle = -np.trapezoid(np.cos(paths.values), dx=grid.dt, axis=0)
    rms = np.sqrt(np.mean((smooth - oracle) ** 2))
    print(f"f(t,y)=sin: RMS against -int cos(B_u) du = {rms:.4f}"
          f"   (O(sqrt(dt)) = {np.sqrt(grid.dt):.4f})")

    print()
    print("== Malliavin derivatives of the mean-field OU solution ==")
    spec = mean_field_ou(theta=THETA, kappa=KAPPA)
    solved = picard_solve(spec, 0.3, grid, n_paths=20_000, seed=seed)
    cum = drift_cumulants(solved)
    s, u, t = 100, 250, 400
    d = malliavin_derivative(cum, s, t)
    exact = np.exp(-THETA * (grid.nodes[t] - grid.nodes[s]))
    print(f"D_s X_t sample mean {d.mean():.5f}, closed form {exact:.5f}, "
          f"RMS gap {np.sqrt(np.mean((d - exact) ** 2)):.4f}")

    d_su = malliavin_derivative(cum, s, u)
    d_ut = malliavin_derivative(cum, u, t)
    print(f"cocycle residual max |D_sX_t - D_uX_t D_sX_u| = "
          f"{np.max(np.abs(d - d_ut * d_su)):.2e}   (roundoff)")
    print(f"all factors positive: {bool(np.all(d > 0))}")

    print()
    print("== first variation and the chain identity ==")
    # for this drift the law enters through its mean, so
    # dxb(s, y) = kappa * d/dx m(s) = kappa * exp((kappa - theta) s)
    dxb = lambda s, y: KAPPA * np.exp((KAPPA - THETA) * s) * np.ones_like(y)
    fv = first_variation(solved, dxb)
    exact_fv = np.exp((KAPPA - THETA) * grid.nodes[t])
    print(f"dX_T/dx sample mean {fv[t].mean():.5f}, "
          f"ODE value {exact_fv:.5f}")

    report = check_chain_identity(solved, s, u, t, dxb=dxb)
    print(f"chain-rule residual: rms {report.chain_rms:.2e}, "
          f"max {report.chain_max:.2e}")
    print(f"cocycle residual:    rms {report.cocycle_rms:.2e}, "
          f"max {report.cocycle_max:.2e}")


if __name__ == "__main__":
    main()
