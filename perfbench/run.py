"""Benchmark of the mfsde command-line engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. NAME is simulate, delta or convergence
(see workloads.py for what each exercises), or `all`, which runs each in
turn and prints every metric of every workload. The metric names and units
come from BENCHMARK.json at the root.

--trace 0 is a closed loop: one client, one `mfsde <command> --workers 2`
process at a time, started again until S seconds have passed (and at least
twice). Every operation of a run uses the same config, derived from N, so
their CSV bytes must agree. Reported, untraced:
  wall_s        median wall time of one command, spawn to exit
  setup_s       median time to start Python, import mfsde.cli and load the
                config, with no numerical work (one sample after each
                operation, after one unmeasured warm-up)
  peak_rss_mb   median ru_maxrss of the command process
  success_rate  1 - failed/attempted, so that it is never 0
An operation fails on a non-zero exit, a missing CSV, a failed output check
or CSV bytes that differ from the first operation of the run.

--trace 1 runs the command once untraced at --workers 1, once at
--workers 2 and once in process under the layer wrappers of traced.py. The
three must write identical CSVs. Reported: per-layer counts and self times,
tracing overhead, and the wall-time speed-up of 2 workers over 1.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full record of the run (per operation:
wall, RSS, CPU, exit code, problems, Picard sweeps where the CSVs give them
and SHA-256 of every CSV; and the environment) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload, config_seed, fingerprint, verify

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKERS = 2
MIN_OPS = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = "import sys; from mfsde.cli import load_config; " \
             "load_config(sys.argv[1])"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """The package from this checkout; BLAS capped at the core count."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(nproc()) for var in BLAS_VARS})
    return env


@dataclass
class Op:
    """One command process and what was found in its outputs."""

    workers: int
    traced: bool
    rc: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    t_spawn: float
    problems: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    sweeps: list[int] = field(default_factory=list)


def spawn(argv: list[str], log: Path) -> tuple[int, float, float, float, float]:
    """Run argv to completion: exit code, wall, peak RSS (MB), CPU, start."""
    with log.open("wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime, t0)


def run_op(workload: Workload, cfg: dict, cfg_path: Path, op_dir: Path,
           workers: int = WORKERS, trace_file: Path | None = None) -> Op:
    """Run the workload's command once and check what it wrote."""
    op_dir.mkdir(parents=True)
    args = [workload.name, "--config", str(cfg_path), "--workers",
            str(workers), "--out", str(op_dir)]
    if trace_file is None:
        argv = [sys.executable, "-m", "mfsde.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "traced.py"), str(trace_file),
                *args]
    log = op_dir.parent / f"{op_dir.name}.log"
    rc, wall, rss, cpu, t0 = spawn(argv, log)
    op = Op(workers=workers, traced=trace_file is not None, rc=rc,
            wall_s=wall, rss_mb=rss, cpu_s=cpu, t_spawn=t0)
    if rc != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
        op.problems.append(f"exit code {rc}: {tail.strip()}")
    else:
        op.problems += verify(workload, op_dir, cfg)
    op.fingerprint = fingerprint(op_dir, workload.outputs)
    residuals = op_dir / "simulate_residuals.csv"
    if residuals.is_file():
        op.sweeps = [len(residuals.read_text().splitlines()) - 1]
    shutil.rmtree(op_dir)
    log.unlink()
    return op


def mark_mismatches(ops: list[Op]) -> None:
    """Same config and seed, so every op must write the first op's bytes."""
    for i, op in enumerate(ops[1:], start=1):
        if op.fingerprint != ops[0].fingerprint:
            op.problems.append(f"CSV bytes differ from operation 0 "
                               f"(op {i}, workers {op.workers}, "
                               f"traced {op.traced})")


def failed_count(ops: list[Op]) -> int:
    return sum(1 for op in ops if op.problems)


def time_setup(cfg_path: Path, work: Path) -> float:
    """Wall time to start Python, import mfsde.cli and load the config."""
    log = work / "setup.log"
    rc, wall, _, _, _ = spawn([sys.executable, "-c", SETUP_CODE,
                               str(cfg_path)], log)
    if rc != 0:
        raise RuntimeError(f"set-up failed with exit code {rc}:\n"
                           + log.read_text(errors="replace"))
    log.unlink()
    return wall


def untraced_run(workload: Workload, cfg: dict, cfg_path: Path, work: Path,
                 seconds: float) -> tuple[list[Op], dict, dict]:
    time_setup(cfg_path, work)  # fills the bytecode and file caches
    ops: list[Op] = []
    setup: list[float] = []
    t0 = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - t0 < seconds:
        ops.append(run_op(workload, cfg, cfg_path, work / f"op{len(ops)}"))
        # one set-up sample after each operation, so that set-up and the
        # operations see the same machine state
        setup.append(time_setup(cfg_path, work))
    mark_mismatches(ops)
    metrics = {
        "wall_s": statistics.median(op.wall_s for op in ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
        "success_rate": 1.0 - failed_count(ops) / len(ops),
    }
    return ops, metrics, {"setup_s": setup}


def traced_run(workload: Workload, cfg: dict, cfg_path: Path, work: Path
               ) -> tuple[list[Op], dict, dict]:
    trace_file = work / "trace.json"
    # the untraced --workers 2 run goes next to the traced one, so that the
    # overhead compares neighbours in time
    single = run_op(workload, cfg, cfg_path, work / "w1", workers=1)
    base = run_op(workload, cfg, cfg_path, work / "w2")
    traced = run_op(workload, cfg, cfg_path, work / "traced",
                    trace_file=trace_file)
    ops = [single, base, traced]
    mark_mismatches(ops)
    if not trace_file.is_file():
        traced.problems.append("traced run wrote no trace")
        return ops, {}, {}
    trace = json.loads(trace_file.read_text(encoding="utf-8"))
    traced.sweeps = trace["sweeps_per_solve"]
    startup = trace["t_main"] - traced.t_spawn
    layers = trace["layers"]
    metrics = dict(trace["metrics"])
    metrics.update({
        "process.cpu_s": base.cpu_s,
        "process.startup_s": startup,
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - base.wall_s,
        "trace.coverage": (sum(layers.values()) + startup) / traced.wall_s,
        "scaling.speedup_w2": single.wall_s / base.wall_s,
    })
    ranking = sorted(layers, key=layers.get, reverse=True)
    return ops, metrics, {"layer_self_s": layers, "layer_ranking": ranking,
                          "computed_metrics": trace["computed"]}


def largest_path_array_mb(cfg: dict) -> float:
    """Largest N x (steps + 1) float64 array one solve or study holds."""
    run = cfg["run"]
    shapes = [(run["particles"], run["steps"])]
    cv = cfg.get("convergence")
    if cv:
        shapes += [(n, run["steps"]) for n in cv["particle_counts"]]
        shapes += [(cv["rate_paths"], m) for m in cv["step_counts"]]
    return max(n * (m + 1) * 8 for n, m in shapes) / 1e6


def environment(cfg: dict) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                level = (index / "level").read_text().strip()
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    env = child_env()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "child_blas_threads": {var: env[var] for var in BLAS_VARS},
        "caches": caches,
        "largest_path_array_mb": largest_path_array_mb(cfg),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 units: dict[str, str]) -> dict:
    """One benchmark run; returns the result object and writes the record."""
    workload = WORKLOADS[name]
    cfg = workload.config(config_seed(name, seed))
    work = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")

    if trace:
        ops, values, extra = traced_run(workload, cfg, cfg_path, work)
    else:
        ops, values, extra = untraced_run(workload, cfg, cfg_path, work,
                                          seconds)
    failed = failed_count(ops)
    if values and set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": values.get(k, 0.0), "unit": u}
               for k, u in units.items()}
    result = {"correct": failed == 0, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "trace": trace,
              "seconds": seconds, "config": cfg,
              "environment": environment(cfg), "result": result,
              "ops": [asdict(op) for op in ops], **extra}
    (work.parent / f"{work.name}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work)

    for op in ops:
        for problem in op.problems:
            print(f"{name}: FAILED op: {problem}")
    computed = extra.get("computed_metrics", ())
    for k, m in metrics.items():
        print(f"{name:12s} {k:44s} {m['value']:>16.6g} {m['unit']}"
              + (" (computed)" if k in computed else ""))
    print(f"{name:12s} environment: " + json.dumps(record["environment"]))
    if "layer_ranking" in extra:
        print(f"{name:12s} layers by self time: "
              + ", ".join(extra["layer_ranking"]))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mfsde" / "cli.py").is_file():
        print(f"no mfsde package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace, units)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
