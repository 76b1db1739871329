"""One delta, three estimators: integration by parts, pathwise, bump.

The sensitivity d/dx E[payoff(X_T^x)] is computed three independent ways
on the mean-field OU model and compared against the exact ODE value
exp((kappa - theta) T):

  * bel                  -- integration-by-parts weight on Brownian paths;
                            needs no payoff derivative, works for kinked
                            and even discontinuous payoffs,
  * pathwise             -- payoff derivative times the first variation,
  * finite_difference    -- central bump with common random numbers
                            (deterministic given the seed).

The integration-by-parts estimate must also be invariant, within noise, to
the admissible weight function used inside it.

Each estimator is a method of DeltaSession. All estimates below come from
one session, which runs the three Picard solves they need (at x and at
x +/- h) once and shares them; a fresh session per estimate gives the same
numbers at the cost of fresh solves.

Run:
  python demos/05_delta_three_ways.py
"""

from __future__ import annotations

import numpy as np

from mfsde import (DeltaSession, SeedSpec, call_payoff, front_loaded_weight,
                   identity_payoff, make_grid, mean_field_ou, uniform_weight)

THETA, KAPPA = 1.0, 0.5
START, HORIZON = 1.0, 1.0


def main() -> None:
    grid = make_grid(HORIZON, steps=200)
    seed = SeedSpec(20240305)
    spec = mean_field_ou(theta=THETA, kappa=KAPPA)
    payoff = identity_payoff()
    n = 50_000

    exact = np.exp((KAPPA - THETA) * HORIZON)
    print(f"model: mean-field OU, payoff identity, exact delta "
          f"e^(kappa-theta)T = {exact:.5f}")
    print()

    session = DeltaSession(spec, START, grid, n, seed)
    bel = session.bel(payoff)
    pw = session.pathwise(payoff)
    fd = session.finite_difference(payoff)
    for r in (bel, pw, fd):
        gap = abs(r.estimate - exact)
        print(f"{r.label:22s} {r.estimate:.5f} +- {r.stderr:.5f}"
              f"   |gap to exact| = {gap:.5f}")
    print(f"(the bump estimator shares noise between the two solves, so its "
          f"SE is ~0; its error is O(h^2 + dt))")

    print()
    print("== weight-function invariance of the IBP estimator ==")
    flat = session.bel(payoff, uniform_weight(HORIZON))
    front = session.bel(payoff, front_loaded_weight(HORIZON))
    gap = abs(flat.estimate - front.estimate)
    tol = 3.0 * (flat.stderr + front.stderr)
    print(f"{flat.label:22s} {flat.estimate:.5f} +- {flat.stderr:.5f}")
    print(f"{front.label:22s} {front.estimate:.5f} +- {front.stderr:.5f}")
    print(f"gap {gap:.5f} within the 3 SE budget {tol:.5f}: {gap <= tol}")

    print()
    print("== a kinked payoff the pathwise route cannot see cleanly ==")
    kinked = call_payoff(strike=START * np.exp((KAPPA - THETA) * HORIZON))
    bel_k = session.bel(kinked)
    fd_k = session.finite_difference(kinked)
    print(f"{bel_k.label:22s} {bel_k.estimate:.5f} +- {bel_k.stderr:.5f}")
    print(f"{fd_k.label:22s} {fd_k.estimate:.5f} +- {fd_k.stderr:.5f}")
    print(f"gap {abs(bel_k.estimate - fd_k.estimate):.5f}")


if __name__ == "__main__":
    main()
