"""Write perfbench/reference.json, the terminal moments the simulate check uses.

    python3 perfbench/make_reference.py

The reference comes from an independent route to the same law: the direct
interacting-particle scheme (no Picard iteration), on the simulate grid,
with 8x the simulate particle count and a seed no workload derives. It
holds several 400 000 x 201 arrays at once (a few GB) and needs to be rerun
only when the model or grid of the simulate workload changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mfsde import (SeedSpec, direct_particle_solve, make_grid,  # noqa: E402
                   mean_and_se, sign_drift)

from workloads import HORIZON, MODEL, REFERENCE, START, STEPS  # noqa: E402

PARTICLES = 400_000
SEED = 987_654_321


def main() -> int:
    spec = sign_drift(MODEL["alpha"], MODEL["theta"], MODEL["kappa"])
    result = direct_particle_solve(spec, START, make_grid(HORIZON, STEPS),
                                   PARTICLES, SeedSpec(SEED), workers=2)
    xt = result.ensemble.terminal()
    mean, mean_se = mean_and_se(xt)
    second, second_se = mean_and_se(xt * xt)
    record = {
        "config": {"model": MODEL, "start": START, "horizon": HORIZON,
                   "steps": STEPS, "particles": PARTICLES, "seed": SEED,
                   "method": "direct"},
        "terminal_mean": {"estimate": mean, "stderr": mean_se},
        "terminal_second_moment": {"estimate": second, "stderr": second_se},
    }
    REFERENCE.write_text(json.dumps(record, indent=2) + "\n",
                         encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
