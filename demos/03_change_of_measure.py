"""Girsanov reweighting: pricing on Brownian paths with exponential weights.

Once the law flow of the solution is known, expectations under the solution
law can be estimated on plain Brownian paths: weight each path by the
stochastic exponential of the drift along it, which reads the node laws
the solve hands out (`res.laws`). The demo does this for the
discontinuous sign model

    b(t, y, mu) = alpha * sign(y) - theta * y + kappa * mean(mu),

checks the weights average to one, compares the reweighted estimator
against the direct one, and probes the weight tail.

Run:
  python demos/03_change_of_measure.py
"""

from __future__ import annotations

import numpy as np

from mfsde import (PicardConfig, SeedSpec, doleans_weights,
                   epsilon_moment_probe, make_grid, mean_and_se, picard_solve,
                   reweighted_expectation, sample_brownian, sign_drift)

START, HORIZON = 0.3, 1.0


def main() -> None:
    grid = make_grid(HORIZON, steps=200)
    seed = SeedSpec(20240305)
    spec = sign_drift(alpha=0.5, theta=1.0, kappa=0.25)

    print("== solve once to learn the law flow ==")
    res = picard_solve(spec, START, grid, n_paths=50_000, seed=seed,
                       config=PicardConfig(tolerance=1e-3))
    direct_mean = res.ensemble.terminal().mean()
    direct_se = res.ensemble.terminal().std(ddof=1) / np.sqrt(50_000)
    print(f"picard converged in {res.iterations} iterations; "
          f"E[X_T] = {direct_mean:.5f} +- {direct_se:.5f}")

    print()
    print("== exponential weights on fresh Brownian paths ==")
    paths = sample_brownian(grid, n_paths=50_000, start=START,
                            seed=seed.child(7))
    w = doleans_weights(spec, res.laws, paths)
    w_mean, w_se = mean_and_se(w)
    print(f"weight mean = {w_mean:.5f} +- {w_se:.5f}   (martingale target 1)")
    print(f"weight range [{w.min():.4f}, {w.max():.4f}], "
          f"all positive: {bool(np.all(w > 0))}")

    probe = epsilon_moment_probe(w, eps=0.5)
    print(f"E[w^1.5] = {probe.estimate:.4f} +- {probe.stderr:.4f}   "
          f"(finite and stable: tail is integrable)")

    print()
    print("== reweighted expectations vs the direct estimator ==")
    for label, payoff in (("identity", lambda y: y),
                          ("call at 0", lambda y: np.maximum(y, 0.0))):
        rw = reweighted_expectation(spec, res.laws, paths, payoff,
                                    label=label)
        dr = np.asarray(payoff(res.ensemble.terminal()), dtype=float)
        dr_mean = dr.mean()
        dr_se = dr.std(ddof=1) / np.sqrt(dr.size)
        gap = abs(rw.estimate - dr_mean)
        tol = 3.0 * (rw.stderr + dr_se)
        print(f"{label:10s}  reweighted {rw.estimate:.5f} +- {rw.stderr:.5f}"
              f"   direct {dr_mean:.5f} +- {dr_se:.5f}"
              f"   gap {gap:.5f} (3 SE budget {tol:.5f})")
        print(f"{'':10s}  self-normalized variant "
              f"{rw.extra['self_normalized']:.5f}")


if __name__ == "__main__":
    main()
