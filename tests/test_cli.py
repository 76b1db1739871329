import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mfsde import PicardConfig
from mfsde.cli import (_PAYOFFS, ConfigError, load_config, main,
                       parse_config, serialize_config)
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
                          ("mollify_levels", [4, 4])):
        with pytest.raises(ConfigError, match=f"convergence.{key}"):
            parse_config({"convergence": {key: repeated}})


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
    # simulate reads each node's quantiles from one flow row at a time;
    # they must be the bits of one np.quantile call over the whole flow
    payload = deep(BASE, run__particles=1001, run__steps=20)
    payload["model"] = {"name": "sign"}
    payload["output"] = {"directory": str(tmp_path / "out")}
    assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 0
    from mfsde import SeedSpec, make_grid, picard_solve, sign_drift
    result = picard_solve(sign_drift(), 1.0, make_grid(1.0, 20), 1001,
                          SeedSpec(424242))
    want = np.quantile(result.flow.atoms, [0.05, 0.25, 0.5, 0.75, 0.95],
                       axis=1)
    rows = (tmp_path / "out" / "simulate_nodes.csv").read_text().splitlines()
    got = np.array([[float(c) for c in r.split(",")[4:]] for r in rows[1:]])
    assert np.array_equal(got, want.T)


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


def test_every_payoff_has_a_derivative():
    # cmd_delta runs pathwise for every configurable payoff, which needs
    # its derivative
    for name, build in _PAYOFFS.items():
        assert build(1.0).derivative is not None, name


@pytest.mark.parametrize("command", ["simulate", "delta", "convergence"])
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
    # 3: states finite but their squares or spreads not; nothing is written
    for name, model, start in (("inf1", "ou", 1e300), ("inf2", "sign", 1e200)):
        overflow = {"model": {"name": model},
                    "run": {"start": start, "steps": 5, "particles": 50},
                    "output": {"directory": str(tmp_path / name)}}
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate", "--config",
                         write_config(tmp_path, overflow, f"{name}.json")])
        assert code == 3
        assert "variance of node 0 is inf" in capsys.readouterr().err
        assert not (tmp_path / name).exists()
    # 3: the same for delta and convergence, whose tables would hold nan
    # and inf
    far = {"model": {"name": "zero"},
           "run": {"start": 1e200, "steps": 5, "particles": 50}}
    for name, command, section, quantity in (
            ("inf3", "delta",
             {"delta": {"payoff": "square",
                        "methods": ["finite_difference"]}},
             "delta_finite_difference is nan"),
            ("inf4", "convergence",
             {"convergence": {"studies": ["se_vs_n"],
                              "particle_counts": [10, 20]}},
             "stderr of n_paths")):
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
        "output": {"directory": str(tmp_path / "out")},
    }
    path = write_config(tmp_path, payload)
    for command in ("simulate", "delta", "convergence", "selfcheck"):
        assert main([command, "--config", path]) == 0
    written = {p.name: p.read_text(encoding="utf-8").splitlines()[0]
               for p in (tmp_path / "out").glob("*.csv")}
    assert written == documented
