"""The benchmark tracer still finds every name it wraps.

perfbench/traced.py rebinds package functions by name in its own process,
so a refactor that drops or renames one breaks the traced benchmark run and
nothing else. A command or `write_csv` bound where the tracer cannot rebind
it (say, in a dispatch table built at import) runs untraced: the counts of
CSV writes and command spans below catch that. Each command runs in a
subprocess on a tiny config.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"

TINY = {
    "model": {"name": "sign", "alpha": 0.5, "theta": 1.0, "kappa": 0.5},
    "run": {"start": 1.0, "horizon": 1.0, "steps": 20, "particles": 300,
            "seed": 5},
    "picard": {"tolerance": 1e-3, "max_iterations": 50},
    "delta": {"payoff": "call", "strike": 1.0,
              "methods": ["bel", "pathwise", "finite_difference"]},
    "convergence": {"studies": ["se_vs_n", "localtime_rate", "mollify"],
                    "particle_counts": [100, 200], "step_counts": [10, 20],
                    "rate_paths": 100, "mollify_levels": [4, 16]},
}


# CSV files each command writes on TINY
CSV_FILES = {"simulate": 3, "delta": 2, "convergence": 4}


@pytest.mark.parametrize("command", list(CSV_FILES))
def test_traced_run_counts_solves_and_draws(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY), encoding="utf-8")
    record = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(record), command, "--config",
         str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(record.read_text(encoding="utf-8"))["metrics"]
    assert metrics["solver.solves"] > 0
    assert metrics["grid.sample_brownian.calls"] > 0
    assert metrics["cli.write_csv.calls"] == CSV_FILES[command]
    assert metrics["cli.csv_bytes"] > 0
    assert metrics["cli.cmd.self_s"] > 0
