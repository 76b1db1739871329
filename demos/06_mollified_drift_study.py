"""Stability of the solution under smoothing of a discontinuous drift.

The sign model has a genuine jump at the origin. Mollifying at level n
averages the drift over 64 bump-kernel translates by offsets in (-1/n, 1/n),
which spreads the jump into a 64-step staircase of width 2/n; the solution
should approach the rough one as n grows. The sign part is a StepFunction,
so the staircase is built in closed form (64 breakpoints, one sorted lookup
per evaluation). The study solves the original and every smoothed variant on
the same Brownian paths and reports the mean-square terminal gap and the
terminal W1 distance per level.

Run:
  python demos/06_mollified_drift_study.py
"""

from __future__ import annotations

import numpy as np

from mfsde import (SeedSpec, check_regularity, make_grid,
                   mollified_convergence_study, mollify, sign_drift)

START, HORIZON = 0.1, 1.0


def main() -> None:
    grid = make_grid(HORIZON, steps=200)
    seed = SeedSpec(20240305)
    spec = sign_drift(alpha=0.5, theta=1.0, kappa=0.25)

    print("== the smoothed drifts stay admissible ==")
    for n in (4, 64):
        smoothed = mollify(spec, n)
        report = check_regularity(smoothed)
        print(f"level n={n:<3d} drift '{smoothed.name}': "
              f"growth ok {report.growth_ok}, "
              f"law-Lipschitz ok {report.law_lipschitz_ok}, "
              f"decomposition ok {report.decomposition_ok}")

    print()
    print("== terminal convergence study (shared noise across levels) ==")
    study = mollified_convergence_study(spec, START, grid, n_paths=50_000,
                                        seed=seed, levels=(4, 16, 64, 256))
    print(f"{'n':>5s} {'E|X^n_T - X_T|^2':>18s} {'SE':>10s} "
          f"{'terminal W1':>12s}")
    for n, msd, se, w1 in zip(study.levels, study.mean_square_gap,
                              study.gap_stderr, study.terminal_w1):
        print(f"{n:5d} {msd:18.6e} {se:10.2e} {w1:12.6f}")
    print(f"gap nonincreasing within 3 SE: {study.monotone_within_noise}")
    print(f"fitted slope of log gap vs log(1/n): {study.rate_slope:.3f} "
          f"(diagnostic; the square-root law is a bound, not an asymptote)")


if __name__ == "__main__":
    main()
