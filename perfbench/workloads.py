"""The benchmark's pinned workloads, the configs it writes and its output checks.

Every workload runs the paper's discontinuous-drift model, the sign model
b(t, y, mu) = 0.5 sign(y) - y + 0.5 E[mu], from x = 1 over T = 1. The
benchmark seed only picks the Philox seed of the config; sizes are fixed.

- simulate: one Picard solve, 50 000 particles x 200 steps (one path array
  is 80 MB; a solve holds several, well over a 105 MB shared L3). Flow
  construction, the Euler pass and the CLI quantiles do the work; the
  sensitivity, local-time and Girsanov layers do none.
- delta: all three delta estimators for a call struck at 1, the kinked
  payoff the integration-by-parts weight exists for, 10 000 x 200. The only
  workload that runs the Girsanov, local-time and sensitivity layers; 8
  Picard solves of which 3 are distinct.
- convergence: all three studies. Many small-N solves (1000 to 16 000
  particles; per-call overhead), the mollified drift (64 kernel nodes per
  evaluation, 3000 particles) and local-time integrals of 4000 paths on
  grids up to 1600 steps.

Each operation takes 4 to 6 s on 2 cores, so that a 30 s run holds five or
more of them to take the median of; the peak memory of one operation stays
near 0.5 GB.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MODEL = {"name": "sign", "alpha": 0.5, "theta": 1.0, "kappa": 0.5}
START, HORIZON, STEPS = 1.0, 1.0, 200
TOLERANCE = 1e-3
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# A statistical check fails beyond this many (combined) standard errors.
N_SE = 4.0
# The local-time error slope is a discretization rate, not a sampling
# quantity: the band is the one acceptance criterion 04 uses, which covers
# the pre-asymptotic bias at these step counts.
LOCALTIME_BAND = 0.15


def config_seed(workload: str, seed: int) -> int:
    """Philox seed of the config for a benchmark seed; unrelated per workload."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _base(particles: int, seed: int) -> dict:
    return {
        "model": dict(MODEL),
        "run": {"start": START, "horizon": HORIZON, "steps": STEPS,
                "particles": particles, "seed": seed},
        "picard": {"tolerance": TOLERANCE, "max_iterations": 50},
    }


def simulate_config(seed: int) -> dict:
    return _base(50_000, seed)


def delta_config(seed: int) -> dict:
    cfg = _base(10_000, seed)
    cfg["delta"] = {"payoff": "call", "strike": 1.0,
                    "methods": ["bel", "pathwise", "finite_difference"]}
    return cfg


def convergence_config(seed: int) -> dict:
    cfg = _base(3_000, seed)
    cfg["convergence"] = {
        "studies": ["se_vs_n", "localtime_rate", "mollify"],
        "particle_counts": [1000, 2000, 4000, 8000, 16000],
        "step_counts": [100, 200, 400, 800, 1600],
        "rate_paths": 4000,
        "mollify_levels": [4, 16, 64, 256],
    }
    return cfg


def _rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_simulate(out: Path, cfg: dict) -> list[str]:
    """Residual below tolerance; terminal moments match the direct reference."""
    rows = {r["quantity"]: r for r in _rows(out / "simulate_summary.csv")}
    problems = []
    residual = float(rows["final_residual"]["estimate"])
    if not residual < cfg["picard"]["tolerance"]:
        problems.append(f"final residual {residual!r} not below tolerance")
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    expected = {k: ref["config"][k] for k in ("model", "start", "horizon",
                                              "steps")}
    actual = {"model": cfg["model"], "start": cfg["run"]["start"],
              "horizon": cfg["run"]["horizon"], "steps": cfg["run"]["steps"]}
    if expected != actual:
        return problems + ["reference.json was made for another model or grid"]
    for quantity in ("terminal_mean", "terminal_second_moment"):
        got = float(rows[quantity]["estimate"])
        se = float(rows[quantity]["stderr"])
        want = ref[quantity]["estimate"]
        tol = N_SE * math.hypot(se, ref[quantity]["stderr"])
        if not abs(got - want) <= tol:
            problems.append(f"{quantity} {got!r} differs from reference "
                            f"{want!r} by more than {tol!r}")
    return problems


def check_delta(out: Path, cfg: dict) -> list[str]:
    """Every estimator pair agrees (3 SE, plus h^2 for the difference)."""
    rows = _rows(out / "delta_agreement.csv")
    n = len(cfg["delta"]["methods"])
    problems = []
    if len(rows) != n * (n - 1) // 2:
        problems.append(f"{len(rows)} agreement rows, expected "
                        f"{n * (n - 1) // 2}")
    problems += [f"{r['pair']} disagree: |diff| {r['abs_diff']} > "
                 f"{r['tolerance']}" for r in rows if r["agree"] != "1"]
    return problems


def se_slope_stderr(counts: list[int]) -> float:
    """Standard error of the fitted log SE vs log N slope.

    An SE estimated from n Gaussian samples has a log with standard
    deviation 1 / sqrt(2 n); the least-squares slope is a fixed linear
    combination of those logs.
    """
    xs = [math.log(n) for n in counts]
    mean = sum(xs) / len(xs)
    sxx = sum((x - mean) ** 2 for x in xs)
    return math.sqrt(sum(((x - mean) / sxx) ** 2 / (2.0 * n)
                         for x, n in zip(xs, counts)))


def check_convergence(out: Path, cfg: dict) -> list[str]:
    """SE slope -0.5 within 4 SE; local-time rate 0.5 within its band;
    mollified gap shrinking (positive slope)."""
    fits = {r["study"]: float(r["slope"])
            for r in _rows(out / "convergence_fits.csv")}
    problems = []
    tol = N_SE * se_slope_stderr(cfg["convergence"]["particle_counts"])
    if not abs(fits["se_vs_n"] + 0.5) <= tol:
        problems.append(f"se_vs_n slope {fits['se_vs_n']!r} not within "
                        f"{tol:.4f} of -0.5")
    if not abs(fits["localtime_rate"] - 0.5) <= LOCALTIME_BAND:
        problems.append(f"localtime_rate slope {fits['localtime_rate']!r} "
                        f"not within {LOCALTIME_BAND} of 0.5")
    if not fits["mollify_rate"] > 0.0:
        problems.append(f"mollify_rate slope {fits['mollify_rate']!r} <= 0")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str  # also the mfsde command it runs
    config: Callable[[int], dict]
    outputs: tuple[str, ...]
    check: Callable[[Path, dict], list[str]]


WORKLOADS = {
    w.name: w for w in (
        Workload("simulate", simulate_config,
                 ("simulate_nodes.csv", "simulate_residuals.csv",
                  "simulate_summary.csv"), check_simulate),
        Workload("delta", delta_config,
                 ("delta_results.csv", "delta_agreement.csv"), check_delta),
        Workload("convergence", convergence_config,
                 ("convergence_se_vs_n.csv", "convergence_localtime.csv",
                  "convergence_mollify.csv", "convergence_fits.csv"),
                 check_convergence),
    )
}


def fingerprint(out: Path, names: tuple[str, ...]) -> dict[str, str]:
    """SHA-256 of each expected CSV; a missing file maps to None."""
    return {name: (hashlib.sha256((out / name).read_bytes()).hexdigest()
                   if (out / name).is_file() else None) for name in names}


def verify(workload: Workload, out: Path, cfg: dict) -> list[str]:
    """Problems with one operation's outputs; empty when they pass."""
    missing = [n for n in workload.outputs if not (out / n).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    try:
        return workload.check(out, cfg)
    except (KeyError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
