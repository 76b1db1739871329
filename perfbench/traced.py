"""Traced run of one mfsde command, in process.

    python3 perfbench/traced.py RESULT.json <mfsde cli arguments...>

Wraps the entry functions of each layer wherever the mfsde modules look
them up (modules bind imported names, so `mfsde.cli.picard_solve` and
`mfsde.sensitivity.picard_solve` are wrapped as well as
`mfsde.solver.picard_solve`), calls `mfsde.cli.main` once and writes the
per-layer counts and self times to RESULT.json. Nothing in the package is
edited: the wrappers live only in this process.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mfsde import (cli, girsanov, grid, localtime, measures,  # noqa: E402
                   numerics, sensitivity, solver)

from spans import Tracer, aggregate, layer_self_times  # noqa: E402

LAYERS = ("grid", "measures", "drift", "solver", "girsanov", "localtime",
          "sensitivity", "numerics", "cli")

# span name -> function; each is rebound in every mfsde module that holds it
ENTRIES = {
    "grid.sample_brownian": grid.sample_brownian,
    "measures.flow_distance": measures.flow_distance,
    "solver.picard_solve": solver.picard_solve,
    "solver.moment_diagnostics": solver.moment_diagnostics,
    "girsanov.drift_along_paths": girsanov.drift_along_paths,
    "localtime.cumulative_pieces": localtime._cumulative_pieces,
    "localtime.local_time_integral": localtime.local_time_integral,
    "sensitivity.bel_delta": sensitivity.bel_delta,
    "sensitivity.pathwise_delta": sensitivity.pathwise_delta,
    "sensitivity.finite_difference_delta":
        sensitivity.finite_difference_delta,
    "sensitivity.law_derivative": sensitivity.law_derivative,
    "sensitivity.mollified_convergence_study":
        sensitivity.mollified_convergence_study,
    "numerics.guarded_exp": numerics.guarded_exp,
    "numerics.mean_and_se": numerics.mean_and_se,
    "cli.write_csv": cli.write_csv,
}
COMMANDS = (cli.cmd_simulate, cli.cmd_delta, cli.cmd_convergence)

# Metrics computed from call arguments and results rather than timed.
COMPUTED = ("grid.draws", "grid.draw_use_ratio", "grid.unique_draw_ratio",
            "measures.bytes_sorted", "drift.points", "solver.path_steps",
            "solver.unique_solve_ratio", "cli.csv_bytes")


def rebind(original, replacement) -> None:
    """Replace every module-level binding of `original` in the package."""
    for name, module in list(sys.modules.items()):
        if name != "mfsde" and not name.startswith("mfsde."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Counters:
    """Work counts taken at the layer boundaries from arguments and results."""

    def __init__(self) -> None:
        self.draws_generated = 0
        self.draws_requested = 0
        self.draw_keys: set = set()
        self.bytes_sorted = 0
        self.drift_points = 0
        self.sweeps: list[int] = []
        self.path_steps = 0
        self.solve_keys: set = set()
        self.csv_bytes = 0

    def on_sample(self, args, kwargs, result) -> None:
        a = _bind(grid.sample_brownian, args, kwargs)
        g, n, seed = a["grid"], a["n_paths"], a["seed"]
        blocks = -(-n // grid.BLOCK_SIZE)
        self.draws_generated += blocks * grid.BLOCK_SIZE * g.steps
        self.draws_requested += n * g.steps
        self.draw_keys.add((seed.seed, seed.stream, g.horizon, g.steps, n))

    def on_flow(self, args, kwargs, result) -> None:
        ensemble = args[0] if args else kwargs["ensemble"]
        self.bytes_sorted += ensemble.values.nbytes

    def on_solve(self, args, kwargs, result) -> None:
        a = _bind(solver.picard_solve, args, kwargs)
        g, n, seed = a["grid"], a["n_paths"], a["seed"]
        self.sweeps.append(result.iterations)
        self.path_steps += n * g.steps * result.iterations
        self.solve_keys.add((a["spec"].name, a["start"], g.horizon, g.steps,
                             n, seed.seed, seed.stream, a["config"]))

    def on_drift(self, args, kwargs, result) -> None:
        self.drift_points += int(getattr(args[1], "size", 1))

    def on_csv(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.csv_bytes += Path(path).stat().st_size


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(tracer: Tracer, counters: Counters):
    """Wrap every entry; return the traced stand-in for `mfsde.cli.main`."""
    hooks = {"grid.sample_brownian": counters.on_sample,
             "solver.picard_solve": counters.on_solve,
             "cli.write_csv": counters.on_csv}
    for name, fn in ENTRIES.items():
        rebind(fn, tracer.wrap(name, fn, hooks.get(name)))
    for fn in COMMANDS:
        rebind(fn, tracer.wrap("cli.cmd", fn))

    flow_build = measures.MeasureFlow.from_ensemble
    measures.MeasureFlow.from_ensemble = staticmethod(
        tracer.wrap("measures.from_ensemble", flow_build, counters.on_flow))

    def traced_drift(spec):
        return replace(spec, fn=tracer.wrap("drift.fn", spec.fn,
                                            counters.on_drift))

    build_drift = cli.RunConfig.build_drift
    cli.RunConfig.build_drift = lambda self: traced_drift(build_drift(self))
    mollify = sensitivity.mollify
    rebind(mollify, lambda spec, n: traced_drift(mollify(spec, n)))
    return tracer.wrap("cli.main", cli.main)


def layer_metrics(tracer: Tracer, counters: Counters) -> dict[str, float]:
    totals, under = aggregate(tracer.spans)

    def calls(name):
        return totals[name].calls if name in totals else 0

    def own(name):
        return totals[name].self_s if name in totals else 0.0

    def failed(name):
        return totals[name].failed if name in totals else 0

    def ratio(num, den):
        return num / den if den else 0.0

    solves = calls("solver.picard_solve")
    euler_s = own("solver.picard_solve") + under.get(
        ("drift.fn", "solver.picard_solve"), 0.0)
    m: dict[str, float] = {}
    # solver spans are reported as solves, sweeps and the Euler rate below
    for name in (*ENTRIES, "measures.from_ensemble", "drift.fn"):
        if name.startswith("solver."):
            continue
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = own(name)
    m.update({
        "grid.draws": counters.draws_generated,
        "grid.draw_use_ratio": ratio(counters.draws_requested,
                                     counters.draws_generated),
        "grid.unique_draw_ratio": ratio(len(counters.draw_keys),
                                        calls("grid.sample_brownian")),
        "measures.bytes_sorted": counters.bytes_sorted,
        "drift.points": counters.drift_points,
        "solver.solves": solves,
        "solver.sweeps": sum(counters.sweeps),
        "solver.path_steps": counters.path_steps,
        "solver.picard_solve.self_s": own("solver.picard_solve"),
        "solver.picard_solve.failed": failed("solver.picard_solve"),
        "solver.euler_path_steps_per_s": ratio(counters.path_steps, euler_s),
        "solver.unique_solve_ratio": ratio(len(counters.solve_keys), solves),
        "solver.moment_diagnostics.self_s": own("solver.moment_diagnostics"),
        "numerics.guarded_exp.failed": failed("numerics.guarded_exp"),
        "cli.main.self_s": own("cli.main"),
        "cli.cmd.self_s": own("cli.cmd"),
        "cli.csv_bytes": counters.csv_bytes,
    })
    return m


def main(argv: list[str]) -> int:
    result_path, cli_args = Path(argv[0]), argv[1:]
    tracer, counters = Tracer(), Counters()
    traced_main = install(tracer, counters)
    t_main = time.perf_counter()
    rc = traced_main(cli_args)
    totals, _ = aggregate(tracer.spans)
    record = {
        "rc": rc,
        "t_main": t_main,
        "metrics": layer_metrics(tracer, counters),
        "layers": layer_self_times(totals, LAYERS),
        "sweeps_per_solve": counters.sweeps,
        "computed": COMPUTED,
    }
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
