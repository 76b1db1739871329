import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfsde import PicardConfig
from mfsde.cli import (_PAYOFFS, ConfigError, _interpolate, _quantile_points,
                       _write_outputs, load_config, main, parse_config,
                       serialize_config, write_csv)
from oracles import ou_mean_ode
from test_traced import TINY

BASE = {
    "model": {"name": "ou", "theta": 1.0, "kappa": 0.5},
    "run": {"start": 1.0, "horizon": 1.0, "steps": 100,
            "particles": 20_000, "seed": 424242},
    "picard": {"tolerance": 1e-3, "max_iterations": 30},
    "delta": {"payoff": "identity",
              "methods": ["bel", "pathwise", "finite_difference"]},
    "convergence": {"studies": ["se_vs_n", "localtime_rate"],
                    "particle_counts": [500, 1000, 2000, 4000],
                    "step_counts": [50, 100, 200], "rate_paths": 400},
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def deep(payload, **patches):
    out = json.loads(json.dumps(payload))
    for dotted, value in patches.items():
        section, key = dotted.split("__")
        out.setdefault(section, {})[key] = value
    return out


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_minimal_config_gets_defaults():
    cfg = parse_config({})
    assert cfg.model == {"name": "zero"}
    assert cfg.particles == 10_000
    assert cfg.method == "picard"
    assert cfg.out_dir == "out"


def test_unknown_section_and_key_are_named_in_the_error():
    with pytest.raises(ConfigError, match="simulation"):
        parse_config({"simulation": {}})
    with pytest.raises(ConfigError, match="particls"):
        parse_config({"run": {"particls": 5}})
    with pytest.raises(ConfigError, match="alpha"):
        parse_config({"model": {"name": "ou", "alpha": 1.0}})


def test_type_and_range_validation():
    with pytest.raises(ConfigError, match="run.particles"):
        parse_config({"run": {"particles": -5}})
    with pytest.raises(ConfigError, match="run.particles"):
        parse_config({"run": {"particles": 20_000_000}})
    with pytest.raises(ConfigError, match="run.steps"):
        parse_config({"run": {"steps": 250_000}})
    with pytest.raises(ConfigError, match="run.horizon"):
        parse_config({"run": {"horizon": -1.0}})
    with pytest.raises(ConfigError, match="run.seed"):
        parse_config({"run": {"seed": 2 ** 64}})
    with pytest.raises(ConfigError, match="tolerance"):
        parse_config({"picard": {"tolerance": 0.0}})
    with pytest.raises(ConfigError, match="initial_flow"):
        parse_config({"picard": {"initial_flow": "cauchy"}})
    with pytest.raises(ConfigError, match="payoff"):
        parse_config({"delta": {"payoff": "exotic"}})
    with pytest.raises(ConfigError, match="methods"):
        parse_config({"delta": {"methods": ["likelihood"]}})
    with pytest.raises(ConfigError, match="particle_counts"):
        parse_config({"convergence": {"particle_counts": [100]}})
    # not a finite float: JSON infinities and integers beyond float range
    with pytest.raises(ConfigError, match="run.start"):
        parse_config({"run": {"start": float("inf")}})
    with pytest.raises(ConfigError, match="run.start"):
        parse_config({"run": {"start": 10 ** 400}})
    with pytest.raises(ConfigError, match="model.theta"):
        parse_config({"model": {"name": "ou", "theta": 10 ** 400}})
    # finite, but x +/- h or the blow-up limit 1e6 (1 + |x|) would overflow
    for start in (1.79e308, -1e301):
        with pytest.raises(ConfigError, match="run.start"):
            parse_config({"run": {"start": start}})
    assert parse_config({"run": {"start": -1e300}}).start == -1e300
    # a fit needs >= 2 particles per run and distinct abscissae
    with pytest.raises(ConfigError, match="convergence.particle_counts"):
        parse_config({"convergence": {"particle_counts": [1, 2, 4]}})
    for key, repeated in (("particle_counts", [100, 100]),
                          ("step_counts", [50, 100, 50]),
                          ("mollify_levels", [4, 4]),
                          ("studies", ["mollify", "mollify"])):
        with pytest.raises(ConfigError, match=f"convergence.{key}"):
            parse_config({"convergence": {key: repeated}})
    with pytest.raises(ConfigError, match="delta.methods"):
        parse_config({"delta": {"methods": ["bel", "bel"]}})
    # an entry that cannot be hashed fails its item rule before set() runs
    for section, key, entries in (("delta", "methods", [{"a": 1}, "bel"]),
                                  ("delta", "methods", [["bel"]]),
                                  ("convergence", "studies", [[], "mollify"]),
                                  ("convergence", "step_counts", [[10], 20])):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config({section: {key: entries}})


def test_boolean_is_not_a_number():
    with pytest.raises(ConfigError, match="run.particles"):
        parse_config({"run": {"particles": True}})


def test_config_round_trip():
    first = parse_config(BASE)
    text = serialize_config(first.raw)
    second = parse_config(json.loads(text))
    assert first.raw == second.raw
    assert first.config_hash() == second.config_hash()


README_EXAMPLE = {
    "model": {"name": "ou", "theta": 1.0, "kappa": 0.5},
    "run": {"start": 1.0, "horizon": 1.0, "steps": 200,
            "particles": 100000, "seed": 7, "method": "picard"},
    "picard": {"tolerance": 1e-3, "max_iterations": 50,
               "initial_flow": "brownian"},
    "delta": {"payoff": "identity", "strike": 0.0, "weight": "uniform",
              "methods": ["bel", "pathwise", "finite_difference"],
              "fd_bump": None, "law_bump": None},
    "convergence": {"studies": ["se_vs_n", "localtime_rate", "mollify"],
                    "particle_counts": [1000, 2000, 4000, 8000, 16000],
                    "step_counts": [100, 200, 400, 800],
                    "mollify_levels": [4, 16, 64, 256],
                    "rate_paths": 1000},
    "output": {"directory": "out"},
}


@pytest.mark.parametrize("payload, seed, out, text_sha, config_hash", [
    ({}, None, None,
     "941bc47110fef883fca4d931a0239fadfc21ea6269feb4d05fcbbc1c921fcac7",
     "6220d79fb8031fd3"),
    (README_EXAMPLE, None, None,
     "73bc2067ecc1007b4b2d1bbd238dbac7f42ee2c30eb8a3bc1e2e021343a2e222",
     "c78c1e9675c527a7"),
    # model parameters are kept as given: theta stays the integer 1
    ({"model": {"name": "ou", "theta": 1}}, None, None,
     "8960826399f280ffaf7279ea6b4d5209985913462fc31516d2834ca2c2416aee",
     "85beca4638693941"),
    ({"delta": {"payoff": "call", "strike": 1, "fd_bump": 0.02,
                "law_bump": 0.05}}, None, None,
     "74fd7394b840808d03818af479c1c12832209bb30c38d353e861ff813f6036bb",
     "928024bc014962cd"),
    ({"convergence": {"studies": ["mollify", "se_vs_n"],
                      "particle_counts": [300, 100, 200],
                      "step_counts": [10, 40], "mollify_levels": [8, 2],
                      "rate_paths": 50}}, None, None,
     "2f5f94440b11b7fc75f0bf3ba08e8cf2c77185c67a845af06eb64797b8215d6a",
     "342de36e95324d2d"),
    (README_EXAMPLE, 7, None,
     "73bc2067ecc1007b4b2d1bbd238dbac7f42ee2c30eb8a3bc1e2e021343a2e222",
     "c78c1e9675c527a7"),
    (README_EXAMPLE, None, "elsewhere",
     "8c5d1cfa9716d73faad9dd06a3879bdb9dc6f316cb4e93fc4de4adbfab922cc7",
     "c78c1e9675c527a7"),
    ({"run": {"seed": 3}}, 7, "elsewhere",
     "b42f1121cbc8b1566ac539b5e5ca079df17c57ad4bd5311759af1f7f7221f356",
     "dfd054330c9f3e59"),
])
def test_config_serialization_and_hash_are_pinned(payload, seed, out,
                                                  text_sha, config_hash):
    # the hash is written into every CSV row, so the canonical config text
    # must not change under a refactor of the parser
    cfg = parse_config(payload, seed, out)
    text = serialize_config(cfg.raw)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == text_sha
    assert cfg.config_hash() == config_hash


def test_overrides_apply_and_hash_sees_only_science(tmp_path):
    path = write_config(tmp_path, BASE)
    plain = load_config(path)
    reseeded = load_config(path, seed_override=7)
    moved = load_config(path, out_override=str(tmp_path / "elsewhere"))
    assert reseeded.seed == 7
    assert reseeded.config_hash() != plain.config_hash()
    assert moved.out_dir == str(tmp_path / "elsewhere")
    assert moved.config_hash() == plain.config_hash()


def test_model_parameter_scoping():
    cfg = parse_config({"model": {"name": "sign", "alpha": 0.25}})
    assert cfg.build_drift().bounded_sup == 0.25
    with pytest.raises(ConfigError, match="value"):
        parse_config({"model": {"name": "sign", "value": 1.0}})


# ---------------------------------------------------------------------------
# subcommands end to end
# ---------------------------------------------------------------------------

def test_simulate_zero_drift_node_statistics(tmp_path, capsys):
    payload = deep(BASE, model__name="zero", run__start=0.5, run__seed=777)
    payload["model"] = {"name": "zero"}
    payload["output"] = {"directory": str(tmp_path / "out")}
    code = main(["simulate", "--config", write_config(tmp_path, payload)])
    assert code == 0
    rows = (tmp_path / "out" / "simulate_nodes.csv").read_text().splitlines()
    assert rows[0] == "node,time,mean,variance,q05,q25,q50,q75,q95"
    n = payload["run"]["particles"]
    for line in rows[1:]:
        cells = line.split(",")
        t, mean, var = float(cells[1]), float(cells[2]), float(cells[3])
        se = math.sqrt(max(t, 1e-12) / n)
        assert abs(mean - 0.5) <= 3 * se + 1e-9, line
        # chi-square spread of the sample variance, loose 4-sigma bound
        assert abs(var - t) <= 4 * t * math.sqrt(2.0 / n) + 1e-9, line


def test_simulate_ou_mean_curve_matches_ode_oracle(tmp_path, capsys):
    payload = deep(BASE)
    payload["output"] = {"directory": str(tmp_path / "out")}
    code = main(["simulate", "--config", write_config(tmp_path, payload)])
    assert code == 0
    rows = (tmp_path / "out" / "simulate_nodes.csv").read_text().splitlines()
    n = payload["run"]["particles"]
    dt = 1.0 / payload["run"]["steps"]
    for line in rows[1:]:
        cells = line.split(",")
        t, mean, var = float(cells[1]), float(cells[2]), float(cells[3])
        oracle = ou_mean_ode(1.0, 0.5, 1.0, t) if t > 0 else 1.0
        se = math.sqrt(var / n)
        assert abs(mean - oracle) <= 3 * se + 2 * dt, line


def test_simulate_summary_has_provenance(tmp_path, capsys):
    payload = deep(BASE, run__particles=2000, run__steps=50)
    payload["output"] = {"directory": str(tmp_path / "out")}
    path = write_config(tmp_path, payload)
    assert main(["simulate", "--config", path]) == 0
    rows = (tmp_path / "out" / "simulate_summary.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header == ["quantity", "estimate", "stderr", "n_paths", "steps",
                      "seed", "config_hash"]
    quantities = [r.split(",")[0] for r in rows[1:]]
    assert "terminal_mean" in quantities
    assert "picard_iterations" in quantities
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert "wall_time_seconds" in meta
    for r in rows[1:]:
        assert r.split(",")[6] == meta["config_hash"]


def test_meta_records_the_peak_rss(tmp_path, capsys):
    payload = deep(BASE, run__particles=500, run__steps=20)
    payload["output"] = {"directory": str(tmp_path / "out")}
    assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 0
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    peak = meta["peak_rss_mib"]
    assert isinstance(peak, float) and math.isfinite(peak) and peak > 0


def test_csv_floats_round_trip_exactly(tmp_path, capsys):
    payload = deep(BASE, run__particles=1000, run__steps=20)
    payload["output"] = {"directory": str(tmp_path / "out")}
    assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 0
    import mfsde
    from mfsde import SeedSpec, make_grid, picard_solve, mean_field_ou
    result = picard_solve(mean_field_ou(1.0, 0.5), 1.0, make_grid(1.0, 20),
                          1000, SeedSpec(424242))
    want = float(result.ensemble.terminal().mean())
    rows = (tmp_path / "out" / "simulate_summary.csv").read_text().splitlines()
    got = float(rows[1].split(",")[1])
    assert got == want  # full-precision repr survives the round trip


def test_node_quantiles_equal_the_whole_flow_quantiles(tmp_path, capsys):
    # simulate reads its quantiles from the order statistics of each node
    # its solve sorted; they must equal one np.quantile call over the whole
    # flow
    payload = deep(BASE, run__particles=1001, run__steps=20)
    payload["model"] = {"name": "sign"}
    payload["output"] = {"directory": str(tmp_path / "out")}
    assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 0
    from mfsde import SeedSpec, make_grid, picard_solve, sign_drift
    result = picard_solve(sign_drift(), 1.0, make_grid(1.0, 20), 1001,
                          SeedSpec(424242))
    want = np.quantile(np.sort(result.ensemble.values, axis=1), [0.05, 0.25, 0.5, 0.75, 0.95],
                       axis=1)
    rows = (tmp_path / "out" / "simulate_nodes.csv").read_text().splitlines()
    got = np.array([[float(c) for c in r.split(",")[4:]] for r in rows[1:]])
    assert np.array_equal(got, want.T)


def _signed_zero_rows(rng, n):
    """Sorted rows of n atoms: normals, heavy ties, one zero of each sign
    alone and both together among other values."""
    yield np.sort(rng.standard_normal(n))
    yield np.sort(rng.integers(-2, 3, n).astype(float))
    yield np.sort(rng.choice([-1.0, 0.5, 0.5, 2.0], n))
    yield np.full(n, -0.0)
    yield np.sort(rng.choice([-0.0, -1.0, 1e-300, 3.0], n))
    yield np.sort(rng.choice([0.0, -1.0, -1e-300, 3.0], n))
    yield np.sort(rng.choice([-0.0, 0.0, -1.0, 1.0], n))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 4096, 50_000])
def test_quantile_interpolation_has_the_bits_of_np_quantile(n):
    # simulate reads its quantile columns from the order statistics the
    # solve's sort left, interpolated as numpy does; a numpy that changes
    # its linear method fails here, not in the CSVs
    q = [0.05, 0.25, 0.5, 0.75, 0.95]
    idx, gamma = _quantile_points(n)
    for row in _signed_zero_rows(np.random.default_rng(n), n):
        got = _interpolate(row[idx], gamma)
        want = np.quantile(row, q)
        negative = np.signbit(row[row == 0])
        if negative.any() and not negative.all():
            # both zeros: np.quantile partitions the row again and may
            # swap equal atoms, so a zero may come out of either sign
            assert np.array_equal(got, want)
            same = want != 0
            assert np.array_equal(got[same].view(np.int64),
                                  want[same].view(np.int64))
        else:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("method, initial_flow", [
    ("picard", "brownian"), ("picard", "dirac"), ("direct", "brownian")])
def test_simulate_nodes_csv_is_that_of_np_quantile_on_sorted_rows(
        tmp_path, capsys, method, initial_flow):
    # the nodes table as simulate wrote it before its quantiles came from
    # the solve's sort: each solution row copied, sorted and passed to
    # np.quantile; the solve's own drift never sees the order statistics
    from mfsde import direct_particle_solve, picard_solve
    payload = deep(BASE, run__particles=5000, run__steps=40,
                   run__method=method, picard__initial_flow=initial_flow)
    payload["model"] = {"name": "sign"}
    cfg = parse_config(payload)
    grid = cfg.grid()
    if method == "picard":
        result = picard_solve(cfg.build_drift(), cfg.start, grid,
                              cfg.particles, cfg.seed_spec(), cfg.picard)
    else:
        result = direct_particle_solve(cfg.build_drift(), cfg.start, grid,
                                       cfg.particles, cfg.seed_spec())
    rows = []
    for k, v in enumerate(result.ensemble.values):
        qs = np.quantile(np.sort(v), [0.05, 0.25, 0.5, 0.75, 0.95])
        rows.append([k, float(grid.nodes[k]), float(v.mean()),
                     float(v.var(ddof=1)), *(float(x) for x in qs)])
    want = tmp_path / "want.csv"
    write_csv(want, ["node", "time", "mean", "variance", "q05", "q25", "q50",
                     "q75", "q95"], rows)
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    assert (out / "simulate_nodes.csv").read_bytes() == want.read_bytes()


def test_outputs_are_deterministic_across_runs_and_workers(tmp_path, capsys):
    payload = deep(BASE, run__particles=6000, run__steps=60)
    outputs = {
        "simulate": ("simulate_nodes.csv", "simulate_summary.csv",
                     "simulate_residuals.csv"),
        "delta": ("delta_results.csv", "delta_agreement.csv"),
    }
    for command, names in outputs.items():
        blobs = {}
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / command / tag
            payload["output"] = {"directory": str(out)}
            path = write_config(tmp_path, payload, f"cfg_{command}_{tag}.json")
            assert main([command, "--config", path,
                         "--workers", workers]) == 0
            blobs[tag] = [(out / n).read_bytes() for n in names]
        assert blobs["a"] == blobs["b"], command
        assert blobs["a"] == blobs["c"], command


def test_simulate_runs_the_direct_particle_scheme(tmp_path, capsys):
    from mfsde import direct_particle_solve, mean_and_se
    payload = deep(BASE, run__particles=2000, run__steps=40,
                   run__method="direct")
    payload["model"] = dict(TINY["model"])
    path = write_config(tmp_path, payload)
    blobs = {}
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["simulate", "--config", path, "--out", str(out),
                     "--workers", workers]) == 0
        blobs[workers] = {p.name: p.read_bytes()
                          for p in sorted(out.glob("*.csv"))}
    assert blobs["1"] == blobs["2"]
    assert (blobs["1"]["simulate_residuals.csv"]
            == b"iteration,residual\n1,0.0\n")
    rows = {r.split(",")[0]: r.split(",")[1:] for r in
            blobs["1"]["simulate_summary.csv"].decode().splitlines()}
    assert float(rows["picard_iterations"][0]) == 1
    cfg = parse_config(payload)
    want = direct_particle_solve(cfg.build_drift(), cfg.start, cfg.grid(),
                                 cfg.particles, cfg.seed_spec())
    m, se = mean_and_se(want.ensemble.terminal())
    assert rows["terminal_mean"][:2] == [repr(m), repr(se)]


def test_a_config_that_is_not_json_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"run": {"steps": 10,}}', encoding="utf-8")
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"config '{path}' is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_delta_command_agreement_flags(tmp_path, capsys):
    payload = deep(BASE, run__particles=5000)
    payload["output"] = {"directory": str(tmp_path / "out")}
    assert main(["delta", "--config", write_config(tmp_path, payload)]) == 0
    rows = (tmp_path / "out" / "delta_results.csv").read_text().splitlines()
    quantities = {r.split(",")[0] for r in rows[1:]}
    assert quantities == {"delta_bel", "delta_pathwise",
                          "delta_finite_difference"}
    flags = (tmp_path / "out" / "delta_agreement.csv").read_text().splitlines()
    assert flags[0] == "pair,abs_diff,tolerance,agree"
    assert len(flags) == 4  # three pairs
    assert all(r.split(",")[3] == "1" for r in flags[1:])


def test_convergence_command_fits(tmp_path, capsys):
    payload = deep(BASE, run__particles=2000, run__steps=50)
    payload["model"] = {"name": "zero"}
    payload["output"] = {"directory": str(tmp_path / "out")}
    assert main(["convergence", "--config",
                 write_config(tmp_path, payload)]) == 0
    fits = dict(
        (r.split(",")[0], float(r.split(",")[1]))
        for r in (tmp_path / "out" /
                  "convergence_fits.csv").read_text().splitlines()[1:])
    assert -0.8 <= fits["se_vs_n"] <= -0.2
    assert 0.2 <= fits["localtime_rate"] <= 0.8
    assert (tmp_path / "out" / "convergence_se_vs_n.csv").exists()
    assert (tmp_path / "out" / "convergence_localtime.csv").exists()


def test_convergence_refuses_step_counts_that_do_not_divide_the_finest(
        tmp_path, capsys):
    # the local-time study reads each coarser level as every r-th row of
    # one draw at the largest count; without that study the counts are
    # not read, and any are accepted
    uneven = deep(BASE, run__particles=500, run__steps=20,
                  convergence__step_counts=[100, 150],
                  convergence__particle_counts=[100, 200])
    uneven["output"] = {"directory": str(tmp_path / "out")}
    path = write_config(tmp_path, uneven)
    assert main(["convergence", "--config", path]) == 2
    assert "convergence.step_counts" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    without = deep(uneven, convergence__studies=["se_vs_n"])
    assert main(["convergence", "--config",
                 write_config(tmp_path, without, "without.json")]) == 0
    assert (tmp_path / "out" / "convergence_se_vs_n.csv").exists()


def test_delta_refuses_a_bump_lost_to_rounding(tmp_path, capsys):
    # at x = 1e12 the spacing of doubles is 1.2e-4, so a bump of 1e-5 gives
    # x + h == x == x - h: the bumped solves would be the solve at x and
    # the difference a silent 0. The driving noise, of sd sqrt(0.2), is
    # kept there
    for key in ("fd_bump", "law_bump"):
        lost = {"run": {"start": 1e12, "steps": 5, "particles": 50},
                "delta": {key: 1e-5},
                "output": {"directory": str(tmp_path / key)}}
        assert main(["delta", "--config",
                     write_config(tmp_path, lost, f"{key}.json")]) == 2
        assert f"delta.{key}" in capsys.readouterr().err
        assert not (tmp_path / key).exists()


def test_a_start_whose_noise_rounds_away_is_refused(tmp_path, capsys):
    # at x = 1e17 the spacing of doubles is 16, so x + dB == x for almost
    # every increment of sd sqrt(0.2): simulate reported a terminal mean
    # with stderr 0.0. The start is refused before any numerical work
    ou17 = {"model": {"name": "ou"},
            "run": {"start": 1e17, "steps": 5, "particles": 50}}
    refused = [("simulate", ou17), ("delta", ou17),
               ("convergence", deep(ou17, convergence__studies=["se_vs_n"])),
               # a start so large that squares of its states overflow
               ("simulate", {"model": {"name": "sign"},
                             "run": {"start": 1e200, "steps": 5,
                                     "particles": 50}}),
               # 1e12 keeps the noise at 5 steps; the local-time study
               # draws at its finest count, 100 000 steps
               ("convergence",
                {"model": {"name": "ou"},
                 "run": {"start": 1e12, "steps": 5, "particles": 50},
                 "convergence": {"studies": ["localtime_rate"],
                                 "step_counts": [50_000, 100_000],
                                 "rate_paths": 2}})]
    for i, (command, payload) in enumerate(refused):
        payload = {**payload, "output": {"directory": str(tmp_path / "out")}}
        assert main([command, "--config",
                     write_config(tmp_path, payload, f"c{i}.json")]) == 2
        err = capsys.readouterr().err
        assert "'run.start'" in err and "noise" in err, (command, err)
        assert not (tmp_path / "out").exists()
    kept = {"model": {"name": "ou"},
            "run": {"start": 1e12, "steps": 5, "particles": 50},
            "output": {"directory": str(tmp_path / "out")}}
    assert main(["simulate", "--config",
                 write_config(tmp_path, kept, "kept.json")]) == 0
    rows = (tmp_path / "out" / "simulate_summary.csv").read_text()
    terminal = rows.splitlines()[1].split(",")
    assert terminal[0] == "terminal_mean" and float(terminal[2]) > 0.0


def test_a_directory_holding_another_commands_csv_is_refused(
        tmp_path, capsys, monkeypatch):
    # simulate then delta into one directory left simulate's CSVs beside
    # delta's, under a meta.json that said "command": "delta". A run now
    # refuses, before any numerical work, a directory holding a CSV it
    # will not write, and leaves every file as it was
    import mfsde.cli as cli
    payload = {"model": {"name": "sign"},
               "run": {"start": 1.0, "steps": 20, "particles": 500,
                       "seed": 5},
               "output": {"directory": str(tmp_path / "out")}}
    path = write_config(tmp_path, payload)
    assert main(["simulate", "--config", path]) == 0
    out = tmp_path / "out"

    def listing():
        return {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in out.iterdir()}

    before = listing()
    assert len(before) == 4, sorted(before)
    capsys.readouterr()

    def no_run(cfg):
        raise AssertionError("a refused run reached its command")

    for command in ("delta", "convergence", "selfcheck"):
        monkeypatch.setattr(cli, f"cmd_{command}", no_run)
        assert main([command, "--config", path]) == 2, command
        err = capsys.readouterr().err
        assert "simulate_nodes.csv" in err and command in err, err
        assert listing() == before, command
    # the same command again writes over its own files
    assert main(["simulate", "--config", path]) == 0
    assert {k: v[0] for k, v in listing().items() if k.endswith(".csv")} \
        == {k: v[0] for k, v in before.items() if k.endswith(".csv")}


def test_a_command_writes_exactly_its_csvs(tmp_path):
    # the names the directory check reads are the names written: a command
    # whose tables miss one of its CSVs or add another is refused before
    # the directory is made
    cfg = parse_config({"output": {"directory": str(tmp_path / "out")}})
    table = (["a"], [[1.0]])
    for names in (["delta_results.csv"],
                  ["delta_results.csv", "delta_agreement.csv",
                   "simulate_nodes.csv"]):
        with pytest.raises(RuntimeError, match="'delta' writes"):
            _write_outputs(cfg, "delta", dict.fromkeys(names, table), 0.0)
    assert not (tmp_path / "out").exists()


def test_convergence_with_fewer_studies_is_refused_over_more(tmp_path,
                                                              capsys):
    studies = deep(BASE, run__particles=300, run__steps=10,
                   convergence__particle_counts=[100, 200],
                   convergence__step_counts=[10, 20],
                   convergence__rate_paths=50)
    studies["output"] = {"directory": str(tmp_path / "out")}
    both = write_config(tmp_path, studies, "both.json")
    one = write_config(
        tmp_path, deep(studies, convergence__studies=["se_vs_n"]), "one.json")
    # a run may write over a subset of its own CSVs, and rerun over all
    assert main(["convergence", "--config", one]) == 0
    assert main(["convergence", "--config", both]) == 0
    assert main(["convergence", "--config", both]) == 0
    written = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
    assert written == ["convergence_fits.csv", "convergence_localtime.csv",
                       "convergence_se_vs_n.csv"]
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert main(["convergence", "--config", one]) == 2
    assert "convergence_localtime.csv" in capsys.readouterr().err
    assert {p.name: p.read_bytes()
            for p in (tmp_path / "out").iterdir()} == before


def test_repeated_methods_and_studies_are_refused(tmp_path, capsys):
    # a repeated name ran its pass twice and moved the config hash with no
    # change to the science
    small = deep(BASE, run__particles=300, run__steps=10)
    for command, section, key, names in (
            ("delta", "delta", "methods", ["bel", "pathwise", "bel"]),
            ("convergence", "convergence", "studies",
             ["mollify", "se_vs_n", "mollify"])):
        payload = deep(small, **{f"{section}__{key}": names})
        payload["output"] = {"directory": str(tmp_path / command)}
        path = write_config(tmp_path, payload, f"{command}.json")
        assert main([command, "--config", path]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def failing_writes(monkeypatch, fail_at):
    """Make the fail_at-th file write of pathlib write half its data and
    raise, as a full disk would."""
    real = {name: getattr(Path, name) for name in ("write_bytes",
                                                    "write_text")}
    count = itertools.count(1)

    def make(name):
        def write(self, data, *args, **kwargs):
            if next(count) == fail_at:
                real[name](self, data[:len(data) // 2], *args, **kwargs)
                raise OSError(28, "No space left on device")
            return real[name](self, data, *args, **kwargs)
        return write

    for name in real:
        monkeypatch.setattr(Path, name, make(name))


def test_a_write_that_fails_midway_leaves_no_truncated_csv(tmp_path,
                                                           monkeypatch):
    payload = deep(BASE, run__particles=300, run__steps=10)
    payload["output"] = {"directory": str(tmp_path / "out")}
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    # a fresh directory: the first CSV fails midway and none is left under
    # its name
    with monkeypatch.context() as patch:
        failing_writes(patch, 1)
        with pytest.raises(OSError):
            main(["simulate", "--config", path])
    assert list(out.glob("*.csv")) == []
    assert [p.name for p in out.glob("*.tmp")] == ["simulate_nodes.csv.tmp"]
    # the leftover .tmp is not a CSV the run refuses; the next run writes
    # over it
    assert main(["simulate", "--config", path]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["meta.json", "simulate_nodes.csv",
                              "simulate_residuals.csv",
                              "simulate_summary.csv"]
    # a rerun whose second CSV fails midway leaves every CSV as it was
    with monkeypatch.context() as patch:
        failing_writes(patch, 2)
        with pytest.raises(OSError):
            main(["simulate", "--config", path])
    after = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert after == {k: v for k, v in before.items() if k.endswith(".csv")}


def test_a_meta_write_that_fails_midway_leaves_no_truncated_meta(
        tmp_path, monkeypatch):
    # simulate writes its three CSVs, then meta.json: the fourth write
    payload = deep(BASE, run__particles=300, run__steps=10)
    path = write_config(tmp_path, payload)
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    assert main(["simulate", "--config", path, "--out", str(rerun)]) == 0
    before = (rerun / "meta.json").read_bytes()
    for out in (fresh, rerun):
        with monkeypatch.context() as patch:
            failing_writes(patch, 4)
            with pytest.raises(OSError):
                main(["simulate", "--config", path, "--out", str(out)])
        assert len(list(out.glob("*.csv"))) == 3
    assert not (fresh / "meta.json").exists()
    assert (rerun / "meta.json").read_bytes() == before
    json.loads(before)


def test_meta_lists_the_sha256_of_each_csv(tmp_path):
    # the SHA-256 of each file's bytes, the digest perfbench/workloads.py
    # (fingerprint) takes of every output
    path = write_config(tmp_path, TINY)
    for command, count in (("simulate", 3), ("delta", 2),
                           ("convergence", 4)):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 0
        files = json.loads((out / "meta.json").read_text())["files"]
        assert sorted(files) == sorted(p.name for p in out.glob("*.csv"))
        assert len(files) == count
        assert files == {name: hashlib.sha256((out / name).read_bytes())
                         .hexdigest() for name in files}


def test_every_payoff_has_a_derivative():
    # cmd_delta runs pathwise for every configurable payoff, which needs
    # its derivative
    for name, build in _PAYOFFS.items():
        assert build(1.0).derivative is not None, name


@pytest.mark.parametrize("command", ["simulate", "delta", "convergence",
                                     "selfcheck"])
def test_no_picard_solve_repeats_within_a_command(tmp_path, capsys,
                                                   monkeypatch, command):
    import mfsde.cli as cli
    import mfsde.sensitivity as sensitivity
    import mfsde.solver as solver

    keys = []
    solve = solver.picard_solve

    def recorded(spec, start, grid, n_paths, seed, config=PicardConfig(),
                 brownian=None):
        keys.append((spec.name, start, grid.steps, n_paths, seed, config))
        return solve(spec, start, grid, n_paths, seed, config, brownian)

    for module in (cli, solver, sensitivity):
        monkeypatch.setattr(module, "picard_solve", recorded)
    path = write_config(tmp_path, TINY)
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "out")]) == 0
    assert keys
    assert len(set(keys)) == len(keys), keys


def test_selfcheck_passes_and_writes_table(tmp_path, capsys):
    payload = {"run": {"particles": 4000, "seed": 11},
               "output": {"directory": str(tmp_path / "out")}}
    code = main(["selfcheck", "--config", write_config(tmp_path, payload)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    table = (tmp_path / "out" / "selfcheck.csv").read_text().splitlines()
    assert table[0] == "check,value,bound,pass"
    assert all(r.split(",")[3] == "1" for r in table[1:])


def test_selfcheck_fails_when_a_draw_is_not_a_prefix(capsys, monkeypatch):
    # a tail block drawn time-major at its own width gives a short draw
    # other numbers than the same paths of a longer draw
    import mfsde.grid as grid

    def tail_at_own_width(out, seed):
        steps, n_paths = out.shape
        for j in range(-(-n_paths // grid.BLOCK_SIZE)):
            lo = j * grid.BLOCK_SIZE
            hi = min(lo + grid.BLOCK_SIZE, n_paths)
            out[:, lo:hi] = seed.block_generator(j).standard_normal(
                (steps, hi - lo))

    monkeypatch.setattr(grid, "_normal_increments", tail_at_own_width)
    assert main(["selfcheck"]) == 4
    assert "FAIL block_prefix" in capsys.readouterr().out


def test_delta_weight_overflow_exits_3_before_writing(tmp_path, capsys):
    # the Girsanov exponent of a constant drift 40 passes the 700 guard
    overflow = {"model": {"name": "constant", "value": 40.0},
                "run": {"start": 1.0, "steps": 50, "particles": 500},
                "delta": {"payoff": "call", "strike": 1.0,
                          "methods": ["bel", "pathwise"]},
                "output": {"directory": str(tmp_path / "out")}}
    code = main(["delta", "--config", write_config(tmp_path, overflow)])
    assert code == 3
    assert "exceeds guard" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_codes(tmp_path, capsys):
    # 2: malformed config (negative particle count, diagnostic names key)
    bad = deep(BASE, run__particles=-5)
    code = main(["simulate", "--config", write_config(tmp_path, bad)])
    assert code == 2
    assert "run.particles" in capsys.readouterr().err
    # 2: unreadable path
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
    # 2: overrides obey the rules of the keys they replace
    small = deep(BASE, run__particles=500, run__steps=20)
    small["output"] = {"directory": str(tmp_path / "o2")}
    small_path = write_config(tmp_path, small, "small.json")
    for flag, value in (("--seed", "-1"), ("--seed", str(2 ** 64)),
                        ("--out", "")):
        assert main(["simulate", "--config", small_path, flag, value]) == 2
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "o2").exists()
    # 3: numerical failure (no convergence in one iteration)
    stuck = deep(BASE, picard__max_iterations=1, run__particles=500)
    stuck["output"] = {"directory": str(tmp_path / "o3")}
    code = main(["simulate", "--config", write_config(tmp_path, stuck)])
    assert code == 3
    assert "did not reach" in capsys.readouterr().err
    # 2: the mollify study needs a bounded/Lipschitz split; simulate and
    # delta of the same model are valid
    split = deep(BASE, run__particles=500, run__steps=20,
                 convergence__studies=["se_vs_n", "mollify"])
    split["model"] = {"name": "expectation_square"}
    split["output"] = {"directory": str(tmp_path / "o4")}
    assert main(["convergence", "--config",
                 write_config(tmp_path, split, "split.json")]) == 2
    assert "convergence.studies" in capsys.readouterr().err
    assert not (tmp_path / "o4").exists()
    # 2: a start whose bumped solves at x +/- h would overflow
    huge = {"model": {"name": "ou"},
            "run": {"start": 1.79e308, "steps": 5, "particles": 50},
            "delta": {"methods": ["finite_difference"]},
            "output": {"directory": str(tmp_path / "o5")}}
    assert main(["delta", "--config",
                 write_config(tmp_path, huge, "huge.json")]) == 2
    assert "run.start" in capsys.readouterr().err
    assert not (tmp_path / "o5").exists()
    # 3: states finite but their squares not; nothing is written. A start
    # of 1e160 keeps its driving noise only on a long horizon, where
    # sqrt(dt) is about 4e149 against a spacing of doubles of about 2e144
    far = {"model": {"name": "zero"},
           "run": {"start": 1e160, "horizon": 1e300, "steps": 5,
                   "particles": 50}}
    for name, command, section, quantity in (
            ("inf1", "simulate", {}, "terminal_second_moment is inf"),
            ("inf3", "delta",
             {"delta": {"payoff": "square",
                        "methods": ["finite_difference"]}},
             "delta_finite_difference is nan"),
            ("inf4", "convergence",
             {"convergence": {"studies": ["localtime_rate"],
                              "step_counts": [1, 5], "rate_paths": 10}},
             "rms_error of steps 1 is inf")):
        overflow = {**far, **section,
                    "output": {"directory": str(tmp_path / name)}}
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = main([command, "--config",
                         write_config(tmp_path, overflow, f"{name}.json")])
        assert code == 3
        assert quantity in capsys.readouterr().err
        assert not (tmp_path / name).exists()
    # 2: --workers caps threads and must be at least one
    assert main(["selfcheck", "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err
    # 2: without a config, selfcheck has no keys for --seed or --out to
    # override
    for flag, value in (("--seed", "-5"), ("--seed", "7"),
                        ("--out", str(tmp_path / "o6"))):
        assert main(["selfcheck", flag, value]) == 2
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "o6").exists()
    # 0: healthy run
    ok = deep(BASE, run__particles=500, run__steps=20)
    ok["output"] = {"directory": str(tmp_path / "o0")}
    assert main(["simulate", "--config", write_config(tmp_path, ok)]) == 0


def test_oversized_run_is_refused_before_allocating(tmp_path, capsys,
                                                    monkeypatch):
    # about 8 TB for each path array: must exit 2 before any command runs
    import mfsde.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("command ran despite the memory check")

    for command in ("simulate", "delta", "convergence"):
        monkeypatch.setattr(cli, f"cmd_{command}", refuse)
    huge = deep(BASE, run__particles=10_000_000, run__steps=100_000,
                convergence__studies=["se_vs_n", "mollify"])
    huge["output"] = {"directory": str(tmp_path / "huge")}
    path = write_config(tmp_path, huge)
    for command in ("simulate", "delta", "convergence"):
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert "run.particles" in err and "physical memory" in err
    assert not (tmp_path / "huge").exists()
    # convergence names the keys of its largest study array
    wide = deep(BASE, convergence__rate_paths=10_000_000,
                convergence__step_counts=[50_000, 100_000])
    assert main(["convergence", "--config",
                 write_config(tmp_path, wide, "wide.json")]) == 2
    assert "convergence.rate_paths" in capsys.readouterr().err


def test_memory_check_refuses_one_page_below_its_estimate(tmp_path, capsys,
                                                          monkeypatch):
    # two paths at 100 000 steps draw a chunk of 2 x steps normals, not a
    # full BLOCK_SIZE block: the estimate is PEAK_ARRAYS path arrays plus
    # that
    import mfsde.cli as cli

    ran = []
    for command in ("simulate", "delta", "convergence"):
        monkeypatch.setattr(cli, f"cmd_{command}",
                            lambda cfg, c=command: ran.append(c) or 0)
    tall = deep(BASE, run__particles=2, run__steps=100_000,
                convergence__studies=["mollify"])
    tall["model"] = {"name": "sign"}
    path = write_config(tmp_path, tall)
    for command in ("simulate", "delta", "convergence"):
        need = 8 * (2 * 100_001 * cli.PEAK_ARRAYS[command] + 2 * 100_000)
        # 8-byte pages: one page below the estimate, then exactly at it
        for pages, code in ((need // 8 - 1, 2), (need // 8, 0)):
            monkeypatch.setattr(cli.os, "sysconf",
                                {"SC_PHYS_PAGES": pages,
                                 "SC_PAGE_SIZE": 8}.__getitem__)
            assert main([command, "--config", path]) == code, (command, pages)
            err = capsys.readouterr().err
            assert ("run.steps" in err and "physical memory" in err) \
                == (code == 2)
    assert ran == ["simulate", "delta", "convergence"]


def test_memory_check_counts_one_chunk_of_a_block(tmp_path, capsys,
                                                  monkeypatch):
    # 5000 paths at 1000 steps draw chunks of 2**18 // 1000 = 262
    # particles, so the draw adds 262 x steps normals, not a block's 4096
    import mfsde.cli as cli

    monkeypatch.setattr(cli, "cmd_simulate", lambda cfg: 0)
    wide = deep(BASE, run__particles=5000, run__steps=1000)
    wide["model"] = {"name": "sign"}
    path = write_config(tmp_path, wide)
    need = 8 * (5000 * 1001 * cli.PEAK_ARRAYS["simulate"] + 262 * 1000)
    for pages, code in ((need // 8 - 1, 2), (need // 8, 0)):
        monkeypatch.setattr(cli.os, "sysconf",
                            {"SC_PHYS_PAGES": pages,
                             "SC_PAGE_SIZE": 8}.__getitem__)
        assert main(["simulate", "--config", path]) == code, pages
    assert "physical memory" in capsys.readouterr().err


def test_delta_peak_stays_within_its_memory_estimate(tmp_path, capsys):
    # PEAK_ARRAYS["delta"] counts the interpreter too; the arrays alone, as
    # tracemalloc sees them, must stay below it
    import tracemalloc

    import mfsde.cli as cli

    n, steps = 4096, 200
    cfg = deep(BASE, run__particles=n, run__steps=steps,
               delta__payoff="call", delta__strike=1.0)
    cfg["model"] = {"name": "sign"}
    cfg["output"] = {"directory": str(tmp_path / "out")}
    path = write_config(tmp_path, cfg)
    tracemalloc.start()
    try:
        assert main(["delta", "--config", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * n * (steps + 1))
    assert arrays < cli.PEAK_ARRAYS["delta"], f"peak {arrays:.2f} arrays"


def test_mollify_peak_stays_within_the_convergence_estimate(tmp_path,
                                                            capsys):
    # check_memory counts a convergence run whose largest study is mollify
    # at PEAK_ARRAYS["convergence"]; the arrays of that study alone, as
    # tracemalloc sees them, must stay below it
    import tracemalloc

    import mfsde.cli as cli

    n, steps = 4096, 200
    cfg = deep(BASE, run__particles=n, run__steps=steps,
               convergence__studies=["mollify"])
    cfg["model"] = {"name": "sign"}
    cfg["output"] = {"directory": str(tmp_path / "out")}
    path = write_config(tmp_path, cfg)
    tracemalloc.start()
    try:
        assert main(["convergence", "--config", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out" / "convergence_mollify.csv").exists()
    arrays = peak / (8 * n * (steps + 1))
    assert arrays < cli.PEAK_ARRAYS["convergence"], f"peak {arrays:.2f} arrays"


def _child_peak_kib(code):
    """Peak ru_maxrss, in KiB, of a fresh interpreter running `code`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport resource\n"
         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="glibc heap retention; ru_maxrss in KiB")
def test_rate_study_after_se_vs_n_adds_one_resident_array(tmp_path):
    # se_vs_n frees a 16 000 x 201 draw first, which lifts glibc's mmap
    # threshold above a 4000 x 801 array; a level drawn on its own and
    # freed below that threshold would stay resident under the 1600-step
    # level. Drawn once at 1600 steps, with the 800-step level a view of
    # that draw, the study adds about one 4000 x 1601 array to the
    # interpreter, not 1.6
    n, top = 4000, 1600
    cfg = deep(BASE, run__steps=200, run__seed=11,
               convergence__studies=["se_vs_n", "localtime_rate"],
               convergence__particle_counts=[1000, 16_000],
               convergence__step_counts=[800, top],
               convergence__rate_paths=n)
    cfg["model"] = {"name": "sign"}
    cfg["output"] = {"directory": str(tmp_path / "out")}
    path = write_config(tmp_path, cfg)
    base = _child_peak_kib("import mfsde.cli")
    peak = _child_peak_kib("import mfsde.cli\n"
                           "assert mfsde.cli.main(['convergence', "
                           f"'--config', {path!r}]) == 0")
    arrays = (peak - base) * 1024 / (8 * n * (top + 1))
    assert arrays < 1.3, f"peak {arrays:.2f} arrays above the interpreter"


def test_readme_outputs_table_matches_csv_headers(tmp_path, capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = dict(re.findall(r"^\| `(\w+\.csv)` \| `([^`]+)` \|",
                                 readme.read_text(encoding="utf-8"),
                                 flags=re.MULTILINE))
    payload = {
        "model": {"name": "sign"},
        "run": {"start": 1.0, "steps": 10, "particles": 300, "seed": 5},
        "convergence": {"particle_counts": [100, 200], "step_counts": [10, 20],
                        "mollify_levels": [2, 4], "rate_paths": 50},
    }
    path = write_config(tmp_path, payload)
    # one directory per command: a directory holds one command's CSVs
    commands = ("simulate", "delta", "convergence", "selfcheck")
    for command in commands:
        assert main([command, "--config", path,
                     "--out", str(tmp_path / command)]) == 0
    written = {p.name: p.read_text(encoding="utf-8").splitlines()[0]
               for command in commands
               for p in (tmp_path / command).glob("*.csv")}
    assert written == documented
