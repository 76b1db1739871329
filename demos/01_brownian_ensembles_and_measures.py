"""Counter-based seeding, Brownian ensembles, and Kantorovich distances.

Walks through the reproducibility layer that everything else sits on:
a SeedSpec names a stream, paths are generated in fixed-size blocks so
a draw is the prefix of any longer draw, and empirical measures built
from path columns can be compared in the 1-Wasserstein metric.

Run:
  python demos/01_brownian_ensembles_and_measures.py
"""

from __future__ import annotations

import numpy as np

from mfsde import (SeedSpec, dirac, flow_distance, kantorovich, make_grid,
                   sample_brownian)
from mfsde.measures import EmpiricalMeasure, MeasureFlow


def main() -> None:
    grid = make_grid(horizon=1.0, steps=200)
    seed = SeedSpec(20240305)

    print("== reproducible sampling ==")
    a = sample_brownian(grid, n_paths=5000, start=0.0, seed=seed)
    c = sample_brownian(grid, n_paths=7000, start=0.0, seed=seed)
    print(f"growing N keeps the prefix: "
          f"{np.array_equal(a.values, c.values[:, :5000])}")

    d = sample_brownian(grid, n_paths=5000, start=0.0, seed=seed.child(1))
    print(f"child stream differs from parent: "
          f"{not np.array_equal(a.values, d.values)}")

    print()
    print("== terminal statistics ==")
    term = a.terminal()
    print(f"E[B_T]   = {term.mean():+.4f}   (target 0, SE {1 / np.sqrt(5000):.4f})")
    print(f"E[B_T^2] = {np.mean(term ** 2):.4f}   (target {grid.horizon:.1f})")
    qv = np.sum(a.increments() ** 2, axis=0)
    print(f"quadratic variation mean = {qv.mean():.4f}   (target {grid.horizon:.1f})")

    print()
    print("== Kantorovich distance between empirical measures ==")
    # hand-checkable case: uniform atoms on [0, 1] against a point mass at 1/2
    xs = np.linspace(0.0, 1.0, 2001)
    mu = EmpiricalMeasure(xs)
    print(f"W1(uniform[0,1], delta(0.5)) = {kantorovich(mu, dirac(0.5)):.4f}"
          f"   (exact 0.25)")

    # translation moves W1 by exactly the shift
    shifted = EmpiricalMeasure(xs + 0.3)
    print(f"W1(mu, mu + 0.3)             = {kantorovich(mu, shifted):.4f}"
          f"   (exact 0.30)")

    # two independent Brownian columns at the same time are close in W1
    other = sample_brownian(grid, n_paths=5000, start=0.0, seed=seed.child(2))
    col = grid.steps // 2
    w1 = kantorovich(EmpiricalMeasure(a.values[col]),
                     EmpiricalMeasure(other.values[col]))
    print(f"W1 between two N=5000 draws of B_{{0.5}} = {w1:.4f}"
          f"   (0 in the limit)")

    print()
    print("== measure flows ==")
    flow_a = MeasureFlow.from_ensemble(a)
    flow_d = MeasureFlow.from_ensemble(d)
    print(f"sup_k W1 between two independent Brownian flows = "
          f"{flow_distance(flow_a, flow_d):.4f}")
    print(f"means along the flow, first five nodes: "
          f"{np.round(flow_a.means()[:5], 4)}")


if __name__ == "__main__":
    main()
