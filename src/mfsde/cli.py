"""Command-line front end: simulate, delta, convergence, selfcheck.

The config is a single JSON file with nested sections (schema in the
README); parsing is strict, so unknown sections or keys are errors rather
than silent no-ops. Every command hands its tables to one writer,
`_write_outputs`, which checks that every number is finite before the
output directory exists, then writes each table as a CSV file with fixed
columns, full-precision floats, UTF-8 and LF line endings. For a fixed
config and seed the CSV bytes are identical across runs and --workers
values; volatile run facts (wall time, package version) go to meta.json.

Exit codes: 0 success, 2 malformed config, usage error or a run estimated
to need more than physical memory, 3 numerical failure (non-convergence,
blow-up, overflow guard, a non-finite number in a table), 4 self-check
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from .drift import (DriftSpec, constant_drift, convolution_drift,
                    expectation_square_drift, mean_field_ou, sign_drift,
                    zero_drift)
from .girsanov import EstimatorResult, doleans_weights
from .grid import (BLOCK_SIZE, SeedSpec, TimeGrid, chunk_rows, make_grid,
                   sample_brownian)
from .localtime import (drift_cumulants, localtime_rate_study,
                        malliavin_derivative)
from .numerics import ExponentOverflowError, mean_and_se
from .sensitivity import (DeltaSession, Payoff, WeightFunctionA, call_payoff,
                          constant_payoff, front_loaded_weight,
                          identity_payoff, mollified_convergence_study,
                          square_payoff, uniform_weight)
from .solver import (BlowUpError, PicardConfig, PicardConvergenceError,
                     direct_particle_solve, moment_diagnostics, picard_solve,
                     se_rate_study)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SELFCHECK = 4

MAX_PARTICLES = 10_000_000
MAX_STEPS = 100_000
MAX_SEED = 2**64 - 1
MAX_START = 1e300

# Peak resident memory of a command, counted in its largest (M+1) x N
# float64 path array: peak ru_maxrss over that array's size, both in MB of
# 10^6 bytes (ru_maxrss is in KiB), on the benchmark configs (sign model,
# seed 11, median of 6 runs for simulate, 12 for delta and 10 for
# convergence), rounded up. simulate 50 000 x 200, which holds three path
# arrays (Brownian, solution, one flow buffer): 283.1 MB / 80.4 MB = 3.52;
# delta 10 000 x 200, which holds the draw, the shifted copy, the two
# buffers of a solve and the flows of two earlier solves: 134.7 MB /
# 16.08 MB = 8.38;
# convergence, whose largest array is the 4000 x 1600 local-time ensemble
# (the study holds that one ensemble and O(N) state, so the peak sits in
# se_vs_n's 16 000 x 200 draw and solve): 144.1 MB / 51.23 MB = 2.81. It
# stays 5 because se_vs_n alone, at counts 12 500 to 200 000 x 200, peaks
# at 1269.6 MiB = 4.14 of its arrays, and a config dominated by that study
# must not pass the check and then run out of memory.
# The interpreter's own 36 MB is included, so the counts overstate large
# runs a little. check_memory adds the one chunk of normals drawn at a
# time, min(N, chunk_rows(steps)) x steps.
PEAK_ARRAYS = {"simulate": 4, "delta": 9, "convergence": 5}


class ConfigError(ValueError):
    """Malformed, incomplete or over-specified configuration."""


# ---------------------------------------------------------------------------
# config keys and strict parsing
# ---------------------------------------------------------------------------

# model.name picks a builder; its keyword parameters are the other allowed
# model keys and hold their defaults
_MODELS: dict[str, Callable[..., DriftSpec]] = {
    "zero": zero_drift,
    "constant": constant_drift,
    "ou": mean_field_ou,
    "convolution": convolution_drift,
    "sign": sign_drift,
    "expectation_square": expectation_square_drift,
}

_PAYOFFS: dict[str, Callable[..., Payoff]] = {
    "identity": lambda strike: identity_payoff(),
    "square": lambda strike: square_payoff(),
    "call": lambda strike: call_payoff(strike),
    "constant": lambda strike: constant_payoff(1.0),
}

_WEIGHTS: dict[str, Callable[[float], WeightFunctionA]] = {
    "uniform": uniform_weight,
    "front_loaded": front_loaded_weight,
}

_METHODS = ("bel", "pathwise", "finite_difference")
_STUDIES = ("se_vs_n", "localtime_rate", "mollify")

# key of a field that takes its whole section
_SECTION = "*"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


# A rule validates one given value, named in its messages, and returns the
# value the RunConfig field holds.

def _number(lo=None, hi=None, integer=False) -> Callable[[Any, str], Any]:
    kind = "an integer" if integer else "a number"

    def rule(v, name):
        _require(isinstance(v, int if integer else (int, float))
                 and not isinstance(v, bool), f"{name} must be {kind}")
        # compared before float(), which overflows on a huge integer
        _require(integer or abs(v) <= sys.float_info.max,
                 f"{name} must be finite")
        v = int(v) if integer else float(v)
        _require(lo is None or v >= lo, f"{name} must be >= {lo}")
        _require(hi is None or v <= hi, f"{name} must be <= {hi}")
        return v
    return rule


def _one_of(choices) -> Callable[[Any, str], str]:
    def rule(v, name):
        _require(isinstance(v, str) and v in choices,
                 f"{name} must be one of {', '.join(choices)}")
        return v
    return rule


def _list_of(choices) -> Callable[[Any, str], tuple]:
    def rule(v, name):
        _require(isinstance(v, list) and v
                 and all(isinstance(c, str) and c in choices for c in v),
                 f"{name} must list {', '.join(choices)}")
        return tuple(v)
    return rule


def _fit_counts(lo, hi) -> Callable[[Any, str], tuple]:
    """Abscissae of a log-log fit: >= 2 distinct integers in [lo, hi]."""
    def rule(v, name):
        _require(isinstance(v, list) and len(v) >= 2
                 and all(isinstance(x, int) and not isinstance(x, bool)
                         and lo <= x <= hi for x in v)
                 and len(set(v)) == len(v),
                 f"{name} must be a list of >= 2 distinct integers in "
                 f"[{lo}, {hi}]")
        return tuple(v)
    return rule


def _bump(v, name):
    _require(v is None or (isinstance(v, (int, float)) and 0 < v < 1),
             f"{name} must be in (0, 1) when given")
    return v


def _path(v, name):
    _require(isinstance(v, str) and v, f"{name} must be a path")
    return v


def _model(entries: dict, section: str) -> dict:
    """The model section; parameters are kept as given."""
    name = _one_of(_MODELS)(entries.get("name", "zero"), f"'{section}.name'")
    params = {k: v for k, v in entries.items() if k != "name"}
    extra = set(params) - set(inspect.signature(_MODELS[name]).parameters)
    _require(not extra,
             f"model '{name}' does not take: {', '.join(sorted(extra))}")
    for key, v in params.items():
        _number()(v, f"'{section}.{key}'")
    return {"name": name, **params}


def _key(section: str, default: Any = None,
         rule: Optional[Callable[[Any, str], Any]] = None,
         key: Optional[str] = None, flag: Optional[str] = None):
    """Declare a config key on the RunConfig field that holds it: its
    section, its name (the field name unless given), its default, its rule
    and the command-line flag that overrides it."""
    return field(metadata={"section": section, "key": key,
                           "default": default, "rule": rule, "flag": flag})


@dataclass(frozen=True)
class RunConfig:
    """Validated, effective configuration of one CLI run.

    Each field declares its config key (see `_key`); `raw` is the canonical
    nested dict the hash and the re-serialization are computed from.
    """

    model: dict = _key("model", rule=_model, key=_SECTION)
    # |start| <= MAX_START keeps x +/- h and the blow-up limit finite
    start: float = _key("run", 0.0, _number(-MAX_START, MAX_START))
    horizon: float = _key("run", 1.0, _number(lo=1e-9))
    steps: int = _key("run", 100, _number(1, MAX_STEPS, integer=True))
    particles: int = _key("run", 10_000,
                          _number(2, MAX_PARTICLES, integer=True))
    seed: int = _key("run", 0, _number(0, MAX_SEED, integer=True),
                     flag="--seed")
    method: str = _key("run", "picard", _one_of(("picard", "direct")))
    tolerance: float = _key("picard", 1e-3, _number(lo=1e-12))
    max_iterations: int = _key("picard", 50,
                               _number(1, 10_000, integer=True))
    initial_flow: str = _key("picard", "brownian",
                             _one_of(("brownian", "dirac")))
    payoff_name: str = _key("delta", "identity", _one_of(_PAYOFFS),
                            key="payoff")
    strike: float = _key("delta", 0.0, _number())
    weight_name: str = _key("delta", "uniform", _one_of(_WEIGHTS),
                            key="weight")
    methods: tuple[str, ...] = _key("delta", _METHODS, _list_of(_METHODS))
    fd_bump: Optional[float] = _key("delta", None, _bump)
    law_bump: Optional[float] = _key("delta", None, _bump)
    studies: tuple[str, ...] = _key("convergence", _STUDIES,
                                    _list_of(_STUDIES))
    particle_counts: tuple[int, ...] = _key(
        "convergence", (1000, 2000, 4000, 8000, 16000),
        _fit_counts(2, MAX_PARTICLES))
    step_counts: tuple[int, ...] = _key(
        "convergence", (100, 200, 400, 800), _fit_counts(1, MAX_STEPS))
    mollify_levels: tuple[int, ...] = _key(
        "convergence", (4, 16, 64, 256), _fit_counts(1, 100_000))
    rate_paths: int = _key("convergence", 1000,
                           _number(2, MAX_PARTICLES, integer=True))
    out_dir: str = _key("output", "out", _path, key="directory",
                        flag="--out")
    raw: dict = field(compare=False)

    @property
    def picard(self) -> PicardConfig:
        return PicardConfig(self.tolerance, self.max_iterations,
                            self.initial_flow)

    def grid(self) -> TimeGrid:
        return make_grid(self.horizon, self.steps)

    def seed_spec(self) -> SeedSpec:
        return SeedSpec(self.seed)

    def build_drift(self) -> DriftSpec:
        params = {k: v for k, v in self.model.items() if k != "name"}
        return _MODELS[self.model["name"]](**params)

    def build_payoff(self) -> Payoff:
        return _PAYOFFS[self.payoff_name](self.strike)

    def build_weight(self) -> WeightFunctionA:
        return _WEIGHTS[self.weight_name](self.horizon)

    def config_hash(self) -> str:
        # identifies the scientific configuration: the output location is
        # an execution detail and must not change the hash
        hashed = {k: v for k, v in self.raw.items() if k != "output"}
        return hashlib.sha256(
            serialize_config(hashed).encode("utf-8")).hexdigest()[:16]


def parse_config(payload: dict, seed_override: Optional[int] = None,
                 out_override: Optional[str] = None) -> RunConfig:
    """Validate the nested config dict strictly and apply CLI overrides.

    A flag's value obeys the rule of the key it overrides.
    """
    _require(isinstance(payload, dict), "top-level config must be an object")
    sections: dict[str, dict] = {}
    for f in fields(RunConfig):
        if f.metadata:
            sections.setdefault(f.metadata["section"], {})[
                f.metadata["key"] or f.name] = f
    unknown = set(payload) - set(sections)
    _require(not unknown,
             f"unknown section(s): {', '.join(sorted(unknown))}")
    overrides = {"--seed": seed_override, "--out": out_override}

    values: dict[str, Any] = {}
    raw: dict[str, Any] = {}
    for section, keys in sections.items():
        entries = payload.get(section, {})
        _require(isinstance(entries, dict),
                 f"section '{section}' must be an object")
        if _SECTION in keys:
            f = keys[_SECTION]
            values[f.name] = f.metadata["rule"](entries, section)
            raw[section] = dict(values[f.name])
            continue
        unknown = set(entries) - set(keys)
        _require(not unknown, f"unknown key(s) in '{section}': "
                              f"{', '.join(sorted(unknown))}")
        raw[section] = {}
        for key, f in keys.items():
            rule, flag = f.metadata["rule"], f.metadata["flag"]
            value = (rule(entries[key], f"'{section}.{key}'")
                     if key in entries else f.metadata["default"])
            if overrides.get(flag) is not None:
                value = rule(overrides[flag], flag)
            values[f.name] = value
            raw[section][key] = list(value) if isinstance(value, tuple) \
                else value
    return RunConfig(**values, raw=raw)


def load_config(path: str, seed_override: Optional[int] = None,
                out_override: Optional[str] = None) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config '{path}' is not valid JSON: {exc}") from exc
    return parse_config(payload, seed_override, out_override)


def _ensembles(command: str, cfg: RunConfig) -> list[tuple[int, int, str]]:
    """Paths and steps of the largest ensembles the command draws, with the
    config keys that size them."""
    run = (cfg.particles, cfg.steps, "'run.particles' x 'run.steps'")
    if command != "convergence":
        return [run]
    sizes = []
    if "se_vs_n" in cfg.studies:
        sizes.append((max(cfg.particle_counts), cfg.steps,
                      "'convergence.particle_counts' x 'run.steps'"))
    if "localtime_rate" in cfg.studies:
        sizes.append((cfg.rate_paths, max(cfg.step_counts),
                      "'convergence.rate_paths' x 'convergence.step_counts'"))
    if "mollify" in cfg.studies:
        sizes.append(run)
    return sizes


def check_memory(command: str, cfg: RunConfig) -> None:
    """Refuse a run whose estimated peak memory exceeds physical memory.

    The estimate is PEAK_ARRAYS path arrays plus the one chunk of
    min(N, chunk_rows(steps)) x steps normals drawn at a time.
    """
    need, keys = max(
        (8 * (n * (m + 1) * PEAK_ARRAYS[command] + min(n, chunk_rows(m)) * m),
         k)
        for n, m, k in _ensembles(command, cfg))
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    _require(need <= have,
             f"{keys} needs an estimated {need / 2**30:.1f} GiB for "
             f"'{command}', more than the {have / 2**30:.1f} GiB of physical "
             f"memory")


def serialize_config(raw: dict) -> str:
    """Canonical JSON text; parse(serialize(parse(x))) == parse(x)."""
    return json.dumps(raw, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# result tables and CSV output
# ---------------------------------------------------------------------------

def _fmt(x: Any) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Fixed columns, full-precision floats, UTF-8, LF; deterministic."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _require_finite(header: list[str], rows: list[list]) -> None:
    """Raise FloatingPointError naming the first non-finite number of a
    table, so that no CSV receives it; rows are named by their first
    column."""
    for row in rows:
        for name, v in zip(header, row):
            if isinstance(v, float) and not math.isfinite(v):
                raise FloatingPointError(
                    f"{name} of {header[0]} {row[0]} is {v!r}")


SUMMARY_HEADER = ["quantity", "estimate", "stderr", "n_paths", "steps",
                  "seed", "config_hash"]


def _summary_rows(cfg: RunConfig, triples) -> list[list]:
    """Summary rows from (quantity, estimate, stderr) triples; the other
    columns are the run's provenance, taken from the config."""
    config_hash = cfg.config_hash()
    return [[quantity, float(estimate), float(stderr), cfg.particles,
             cfg.steps, cfg.seed, config_hash]
            for quantity, estimate, stderr in triples]


def _write_meta(out: Path, command: str, cfg: RunConfig,
                wall: float) -> None:
    from . import __version__
    meta = {
        "command": command,
        "config": cfg.raw,
        "config_hash": cfg.config_hash(),
        "wall_time_seconds": wall,
        "version": __version__,
    }
    (out / "meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_outputs(cfg: RunConfig, command: str,
                   tables: dict[str, tuple[list[str], list]],
                   t0: float) -> Path:
    """Check that every {file name: (header, rows)} table is finite, then
    create the output directory, write the tables as CSVs in insertion
    order and meta.json (wall time since t0), and return the directory."""
    for header, rows in tables.values():
        _require_finite(header, rows)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(out / name, header, rows)
    _write_meta(out, command, cfg, time.perf_counter() - t0)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig) -> int:
    """Solve the configured model; write node stats, residuals, summary."""
    t0 = time.perf_counter()
    spec = cfg.build_drift()
    grid = cfg.grid()
    seed = cfg.seed_spec()
    if cfg.method == "picard":
        result = picard_solve(spec, cfg.start, grid, cfg.particles, seed,
                              cfg.picard)
    else:
        result = direct_particle_solve(spec, cfg.start, grid, cfg.particles,
                                       seed)
    values = result.ensemble.values
    node_rows = []
    for k in range(grid.steps + 1):
        # the flow holds each node's values sorted, so the quantiles select
        # from a presorted row; taken a row at a time, they copy one row,
        # not the whole flow
        qs = np.quantile(result.flow.atoms[k], [0.05, 0.25, 0.5, 0.75, 0.95])
        node_rows.append([k, float(grid.nodes[k]),
                          float(values[k].mean()),
                          float(values[k].var(ddof=1)),
                          *(float(q) for q in qs)])
    residual_rows = [[i + 1, float(r)]
                     for i, r in enumerate(result.residual_history)]

    xt = result.ensemble.terminal()
    m, se = mean_and_se(xt)
    report = moment_diagnostics(result)
    summary_rows = _summary_rows(cfg, [
        ("terminal_mean", m, se),
        ("terminal_second_moment", *mean_and_se(xt * xt)),
        ("max_node_second_moment", report.max_moments[0], 0.0),
        ("envelope_ratio", report.envelope_ratio, 0.0),
        ("picard_iterations", result.iterations, 0.0),
        ("final_residual", result.residual, 0.0)])

    out = _write_outputs(cfg, "simulate", {
        "simulate_nodes.csv": (["node", "time", "mean", "variance", "q05",
                                "q25", "q50", "q75", "q95"], node_rows),
        "simulate_residuals.csv": (["iteration", "residual"], residual_rows),
        "simulate_summary.csv": (SUMMARY_HEADER, summary_rows),
    }, t0)
    print(f"simulate: terminal mean {m:.6f} (se {se:.2e}), "
          f"{result.iterations} iteration(s), wrote {out}/")
    return EXIT_OK


def _agreement_rows(results: dict[str, EstimatorResult]) -> list[list]:
    rows = []
    names = list(results)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = results[names[i]], results[names[j]]
            tol = 3.0 * (a.stderr + b.stderr)
            if "finite_difference" in (names[i], names[j]):
                h = results["finite_difference"].extra["h"]
                tol += h * h
            diff = abs(a.estimate - b.estimate)
            rows.append([f"{names[i]}|{names[j]}", float(diff), float(tol),
                         int(diff <= tol)])
    return rows


def cmd_delta(cfg: RunConfig) -> int:
    """Estimate the delta by the configured methods; write agreement flags."""
    t0 = time.perf_counter()
    spec = cfg.build_drift()
    grid = cfg.grid()
    seed = cfg.seed_spec()
    payoff = cfg.build_payoff()
    weight = cfg.build_weight()
    session = DeltaSession(spec, cfg.start, grid, cfg.particles, seed,
                           cfg.picard, law_bump=cfg.law_bump)
    results: dict[str, EstimatorResult] = {}
    for method in cfg.methods:
        if method == "bel":
            results[method] = session.bel(payoff, weight)
        elif method == "pathwise":
            results[method] = session.pathwise(payoff)
        else:
            results[method] = session.finite_difference(payoff, cfg.fd_bump)

    out = _write_outputs(cfg, "delta", {
        "delta_results.csv": (SUMMARY_HEADER, _summary_rows(
            cfg, [(f"delta_{name}", r.estimate, r.stderr)
                  for name, r in results.items()])),
        "delta_agreement.csv": (["pair", "abs_diff", "tolerance", "agree"],
                                _agreement_rows(results)),
    }, t0)
    for name, r in results.items():
        print(f"delta[{name}]: {r.estimate:.6f} (se {r.stderr:.2e})")
    print(f"wrote {out}/")
    return EXIT_OK


def cmd_convergence(cfg: RunConfig) -> int:
    """Run the configured convergence studies; write tables and fits."""
    t0 = time.perf_counter()
    _require("mollify" not in cfg.studies or cfg.build_drift().decomposed,
             f"'convergence.studies' includes mollify, which smooths the "
             f"bounded part of a bounded/Lipschitz split that model "
             f"'{cfg.model['name']}' does not declare")
    tables: dict[str, tuple[list[str], list]] = {}
    fit_rows = []
    notes = []
    if "se_vs_n" in cfg.studies:
        ses, slope = se_rate_study(cfg.build_drift(), cfg.start, cfg.grid(),
                                   cfg.particle_counts, cfg.seed_spec(),
                                   cfg.picard)
        tables["convergence_se_vs_n.csv"] = (
            ["n_paths", "stderr"], list(zip(cfg.particle_counts, ses)))
        fit_rows.append(["se_vs_n", float(slope)])
        notes.append(f"se_vs_n slope: {slope:.3f} (expect about -0.5)")
    if "localtime_rate" in cfg.studies:
        dts, errors, slope = localtime_rate_study(
            cfg.horizon, cfg.step_counts, cfg.rate_paths, cfg.start,
            cfg.seed_spec())
        tables["convergence_localtime.csv"] = (
            ["steps", "dt", "rms_error"],
            list(zip(cfg.step_counts, dts, errors)))
        fit_rows.append(["localtime_rate", float(slope)])
        notes.append(f"localtime_rate slope: {slope:.3f} (expect about 0.5)")
    if "mollify" in cfg.studies:
        study = mollified_convergence_study(
            cfg.build_drift(), cfg.start, cfg.grid(), cfg.particles,
            cfg.seed_spec(), levels=cfg.mollify_levels, config=cfg.picard)
        tables["convergence_mollify.csv"] = (
            ["level", "mean_square_gap", "gap_stderr", "terminal_w1"],
            [[n, m, s, w] for n, m, s, w in
             zip(study.levels, study.mean_square_gap, study.gap_stderr,
                 study.terminal_w1)])
        fit_rows.append(["mollify_rate", float(study.rate_slope)])
        notes.append(f"mollify: monotone within noise: "
                     f"{study.monotone_within_noise}, "
                     f"rate slope {study.rate_slope:.3f}")
    tables["convergence_fits.csv"] = (["study", "slope"], fit_rows)
    out = _write_outputs(cfg, "convergence", tables, t0)
    for note in notes:
        print(note)
    print(f"wrote {out}/")
    return EXIT_OK


def cmd_selfcheck(cfg: Optional[RunConfig]) -> int:
    """Fast built-in battery; prints one PASS/FAIL line per check."""
    t0 = time.perf_counter()
    seed = SeedSpec(cfg.seed if cfg is not None else 2718281828)
    grid = make_grid(1.0, 50)
    n = 4000
    checks: list[tuple[str, float, float, bool]] = []

    def record(name: str, value: float, bound: float, ok: bool) -> None:
        checks.append((name, value, bound, ok))

    # zero drift reproduces the driving noise exactly
    res0 = picard_solve(zero_drift(), 1.0, grid, n, seed)
    gap = float(np.max(np.abs(res0.ensemble.values - res0.brownian.values)))
    record("zero_drift_identity", gap, 0.0, gap == 0.0)

    # terminal mean of the linear model within 4 standard errors
    res = picard_solve(mean_field_ou(), 1.0, grid, n, seed)
    m, se = mean_and_se(res.ensemble.terminal())
    err = abs(m - math.exp(-0.5))
    record("ou_terminal_mean", err, 4 * se, err <= 4 * se)

    # Girsanov weights average to one
    w = doleans_weights(mean_field_ou(), res.flow, res.brownian)
    wm, wse = mean_and_se(w)
    record("weight_mean_one", abs(wm - 1.0), 4 * wse, abs(wm - 1.0) <= 4 * wse)

    # Malliavin cocycle at float precision
    c = drift_cumulants(res)
    d_full = malliavin_derivative(c, 0, 50)
    d_split = malliavin_derivative(c, 0, 25) * malliavin_derivative(c, 25, 50)
    cgap = float(np.max(np.abs(d_full - d_split)))
    record("malliavin_cocycle", cgap, 1e-10, cgap <= 1e-10)

    # delta of the flat model is one
    r = DeltaSession(zero_drift(), 1.0, grid, n, seed).bel(identity_payoff())
    err = abs(r.estimate - 1.0)
    record("bel_flat_delta", err, 4 * r.stderr, err <= 4 * r.stderr)

    # a draw is the prefix of a longer one, which the studies that draw
    # once at their largest count rely on
    a = sample_brownian(grid, n, 0.0, seed)
    b = sample_brownian(grid, n + BLOCK_SIZE, 0.0, seed)
    same = bool(np.array_equal(a.values, b.values[:, :n]))
    record("block_prefix", 0.0 if same else 1.0, 0.0, same)

    failed = [c for c in checks if not c[3]]
    for name, value, bound, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: value {value:.3e} "
              f"(bound {bound:.3e})")
    if cfg is not None:
        _write_outputs(cfg, "selfcheck", {"selfcheck.csv": (
            ["check", "value", "bound", "pass"],
            [[nm, float(v), float(bd), int(ok)]
             for nm, v, bd, ok in checks])}, t0)
    print(f"selfcheck: {len(checks) - len(failed)}/{len(checks)} passed")
    return EXIT_OK if not failed else EXIT_SELFCHECK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfsde",
        description="Mean-field SDE simulation and sensitivity engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (("simulate", True), ("delta", True),
                               ("convergence", True), ("selfcheck", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config,
                       help="path to the JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed")
        p.add_argument("--workers", type=int, default=1,
                       help="thread cap, N >= 1; the engine draws and solves "
                            "on one thread, which honours every cap")
        p.add_argument("--out", default=None,
                       help="override output.directory")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = None
        if args.config is not None:
            cfg = load_config(args.config, seed_override=args.seed,
                              out_override=args.out)
        else:
            # only selfcheck runs without a config; its flags override keys
            # of a config it does not have
            for flag, value in (("--seed", args.seed), ("--out", args.out)):
                if value is not None:
                    raise ConfigError(f"{flag} needs --config")
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        if cfg is not None and args.command in PEAK_ARRAYS:
            check_memory(args.command, cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "delta":
            return cmd_delta(cfg)
        if args.command == "convergence":
            return cmd_convergence(cfg)
        return cmd_selfcheck(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PicardConvergenceError, BlowUpError, ExponentOverflowError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
