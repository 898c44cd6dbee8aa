"""Self-test of the benchmark (not part of the package's test suite):

    python3 -m pytest -q wavebench/test_bench.py
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_nested_spans():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # the first child has a grandchild [2, 3]
    spans = [["root", 0.0, 10.0, -1, None],
             ["a", 1.0, 4.0, 0, None],
             ["g", 2.0, 3.0, 1, None],
             ["b", 3.0, 6.0, 0, None],
             ["c", 8.0, 9.0, 0, None]]
    assert tracer.self_times(spans) == [10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 1.0]
    assert tracer.covered([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 6.0


def test_outermost_skips_nested_spans_of_the_same_name():
    spans = [["f", 0.0, 4.0, -1, None], ["x", 1.0, 3.0, 0, None],
             ["f", 1.5, 2.5, 1, None], ["f", 5.0, 6.0, -1, None]]
    assert [sp[tracer.START] for sp in tracer.outermost(spans, "f")] == [0.0, 5.0]


def test_traced_call_records_span_tree_and_attrs():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))

    def inner(r):
        return r

    wrapped_inner = t.wrap("inner", inner, attrs=lambda a, res: {"n": len(a["r"])})
    outer = t.wrap("outer", lambda: wrapped_inner([1, 2, 3]))
    outer()
    assert [(s[0], s[3], s[4]) for s in t.spans] == [("outer", -1, None),
                                                     ("inner", 0, {"n": 3})]
    assert t.spans[0][1] < t.spans[1][1] < t.spans[1][2] < t.spans[0][2]


def test_metric_names_and_spec():
    doc = run.spec()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in doc["end_to_end"] + doc["per_layer"])
    assert "setup_s" in [m["name"] for m in doc["end_to_end"]]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
    # every per-layer metric is produced by the span arithmetic, except the
    # two the child adds from its rusage and the tracer calibration
    produced = set(tracer.layer_metrics([])) | {"process.minflt", "trace.overhead_s"}
    assert produced == {m["name"] for m in doc["per_layer"]}
    # every wrapped binding has a coverage expectation and vice versa
    assert {b[0] for b in tracer.BINDINGS} == set(run.COVERAGE)
    assert set(run.MIN_REPEATS) == set(run.WORKLOADS) == set(child.WORKLOADS)
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == doc


def test_failure_counting_exit_codes():
    def checks(i, row, doc):
        return [], {"gap": row["gap"]}

    failed = child.sweep_ops("sphere", 1, None, 1, checks)
    assert [op["ok"] for op in failed.values()] == [False]
    row = {"gap": 0.2, "data_distance": 0.05,
           "terms": {"main": 0.1, "commutator": 0.0, "energy": 0.0}}
    doc = {"kind": "gap", "rows": [row], "verdict": "fail"}
    outcome = child.sweep_ops("sphere", 2, doc, 1, checks)
    assert [op["ok"] for op in outcome.values()] == [True]
    # a pass verdict reported with exit 2 disagrees with the rows
    wrong = child.sweep_ops("sphere", 2, dict(doc, verdict="pass"), 1, checks)
    assert [op["ok"] for op in wrong.values()] == [False]


def test_sweep_that_exits_1_counts_as_failed(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[run]\nkind = gap\ntarget = no_such_target\ndeltas = 0.01\n")
    code, doc = child.run_sweep(cfg, tmp_path / "report.json")
    assert code == 1 and doc is None
    ops = child.sweep_ops("sphere", code, doc, 1, None)
    assert sum(not op["ok"] for op in ops.values()) == 1


def test_seed_zero_inputs_are_pinned_and_seeds_keep_work_size(tmp_path):
    g0 = run.make_inputs("gap_pair", 0, tmp_path)
    assert g0["deltas"] == [0.01]
    for seed in (1, 2, 3):
        g = run.make_inputs("gap_pair", seed, tmp_path)
        assert len(g["deltas"]) == 1 and 0.009 <= g["deltas"][0] <= 0.011
        t = run.make_inputs("torus_suites", seed, tmp_path)
        assert (t["pairs"], t["seminorm_n"], t["seminorm_fields"]) == (100, 512, 4)
    assert run.make_inputs("gap_pair", 5, tmp_path) == run.make_inputs("gap_pair", 5, tmp_path)


def test_high_percentile_needs_ten_runs_beyond_it():
    assert run.high_percentile(list(range(10))) is None
    pct, value = run.high_percentile(list(range(20)))
    assert value == 9 and sum(v > value for v in range(20)) == 10
    assert pct == 50.0


def test_seed_zero_comparison_has_an_absolute_floor():
    expected = {"w": {"op": {"zero": 0.0, "big": 2.0}}}
    ops = {"op": child._op([], {"zero": 2.2e-16, "big": 2.0 * (1 + 1e-9)})}
    child.compare_seed0("w", ops, expected)
    assert ops["op"]["ok"]
    ops = {"op": child._op([], {"zero": 1e-9, "big": 2.0})}
    child.compare_seed0("w", ops, expected)
    assert not ops["op"]["ok"]


def test_child_environment_ignores_the_callers_settings(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "1")
    monkeypatch.setenv("MALLOC_ARENA_MAX", "1")
    env = run.child_env()
    assert all(env[v] == "1" for v in run.THREAD_VARS)
    assert {k: env[k] for k in env if k.startswith("MALLOC_")} == run.MALLOC_VARS
    traced = run.child_env(trace=True)
    assert traced["OMP_NUM_THREADS"] == "1"
    assert not [k for k in traced if k.startswith("MALLOC_")]
