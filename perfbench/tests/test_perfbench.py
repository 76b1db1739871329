"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from run import Op, failed_count, mark_mismatches, run_op  # noqa: E402
from spans import Span, Tracer, aggregate, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # properly nested spans partition the root interval
    assert sum(self_times(spans)) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("c", 1.0, 5.0, parent=0),
        Span("d", 4.0, 6.0, parent=0),      # overlaps c on [4, 5]
        Span("e", 9.0, 12.0, parent=0),     # clipped to the root at 10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents_and_failures():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("inner", lambda: None)
    failing = tracer.wrap("failing", boom)

    def outer_fn():
        inner()
        with pytest.raises(ValueError):
            failing()

    tracer.wrap("outer", outer_fn)()
    names = [(s.name, s.parent, s.failed) for s in tracer.spans]
    assert names == [("outer", None, False), ("inner", 0, False),
                     ("failing", 0, True)]
    totals, under = aggregate(tracer.spans)
    assert totals["failing"].failed == 1
    # outer spans ticks 0..5; its children cover [1, 2] and [3, 4]
    assert totals["outer"].self_s == 3.0
    assert under[("inner", "outer")] == 1.0


def test_non_converging_run_is_one_failed_op(tmp_path):
    cfg = {"model": {"name": "sign", "alpha": 0.5, "theta": 1.0,
                     "kappa": 0.5},
           "run": {"start": 1.0, "horizon": 1.0, "steps": 20,
                   "particles": 500, "seed": 7},
           "picard": {"tolerance": 1e-3, "max_iterations": 1}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    op = run_op(WORKLOADS["simulate"], cfg, cfg_path, tmp_path / "op0")
    assert op.rc == 3
    assert "did not reach tolerance" in op.problems[0]
    assert failed_count([op]) == 1


def test_fingerprint_mismatch_fails_the_later_op():
    def op(fp):
        return Op(workers=2, traced=False, rc=0, wall_s=1.0, rss_mb=1.0,
                  cpu_s=1.0, t_spawn=0.0, fingerprint=fp)

    ops = [op({"a.csv": "1"}), op({"a.csv": "1"}), op({"a.csv": "2"})]
    mark_mismatches(ops)
    assert [bool(o.problems) for o in ops] == [False, False, True]
    assert failed_count(ops) == 1
