"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest bench

Each workload runs on a cheap subset of its cases with no time budget
(one pass); every metric named in BENCHMARK.json must be reported, and
the exact counts must repeat under the same seed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _arg(case_id: str) -> int:
    return int(re.findall(r"\d+", case_id)[-1])


def _tiny_syntax(case_id: str) -> bool:
    kind, _, arg = case_id.split(":", 1)[1].partition(":")
    return kind in ("random", "explicit", "predicate") or (
        kind in ("chain", "tower") and int(arg) <= 16)


# Cheap cases of each workload, selected by case id.
TINY = {
    "pr_stack": lambda c: _arg(c) < 200,
    "snr_nested": lambda c: _arg(c) <= 20,
    "compile_grid": lambda c: c.split(":")[1] in (
        "id", "swap", "L", "0", "1", "2", "parity", "membership"),
    "syntax_dag": _tiny_syntax,
}

EXACT = ("eval_steps", "code_dag_nodes", "code_tree_nodes")
METER = ("evaluator.steps", "evaluator.memo_hits", "evaluator.peak_bits",
         "evaluator.max_depth", "clausal.steps", "harness.steps")


@pytest.fixture(autouse=True)
def quick_repeats(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "BUILD_REPS", 1)


def tiny_run(name: str, trace: bool, seed: int = 7):
    return run.run(name, seed, 0.0, trace, keep=TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_reports_every_metric(name):
    info, result = tiny_run(name, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["wrong"]
    assert result["attempted"] >= 11
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = result["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == wanted
    for k, v in got.items():
        assert isinstance(v["value"], (int, float)) and v["value"] > 0, k
    for key in ("python", "nproc", "seed", "commit", "fail_frac"):
        assert key in info
    assert set(info["raw_times"]) < set(got)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric(name):
    info, result = tiny_run(name, trace=True)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    spans = (BENCH.parent / info["spans_file"]).read_text().splitlines()
    first = json.loads(spans[0])
    assert set(first) == {"id", "parent", "layer", "name", "start", "end",
                          "case", "failed"}
    assert result["metrics"]["evaluator.calls"]["value"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_exact_counts_repeat_under_one_seed(name):
    a_info, a = tiny_run(name, trace=False)
    b_info, b = tiny_run(name, trace=False)
    for k in EXACT:
        assert a["metrics"][k]["value"] == b["metrics"][k]["value"], k
    for k in METER:
        assert a_info["counts"].get(k) == b_info["counts"].get(k), k
    assert a_info["fail_frac"] == b_info["fail_frac"]
    assert a_info["failures_per_pass"] == b_info["failures_per_pass"]


def test_seeds_change_inputs():
    _, a = tiny_run("pr_stack", trace=False, seed=1)
    _, b = tiny_run("pr_stack", trace=False, seed=2)
    assert a["metrics"]["eval_steps"] != b["metrics"]["eval_steps"]


def test_case_over_budget_fails():
    import workloads as wl
    from funalg import BudgetExceeded, pair, reduce_recursive_to_pr
    from funalg.corpus import corpus_def
    from tracing import Tracer
    addp = corpus_def("addp")
    d = reduce_recursive_to_pr(addp, {}).result
    with pytest.raises(BudgetExceeded):
        wl.recursive_case(Tracer(), wl.Counts(), [addp], "addp", d,
                          pair(12, 0))


def test_truncated_scaling_study_fails():
    import workloads as wl
    from tracing import Tracer
    tr = Tracer()
    w = wl.CompileGrid(3, tr)
    w.build(tr)
    # exhaustive_search scans 2^30 values at size 30, over any budget
    with pytest.raises(wl.Truncated):
        w.study_case(tr, wl.Counts(), "exhaustive_search", wl.CharMode.ZERO,
                     [4, 30], 0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pr_stack",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


def test_self_time_excludes_child_spans():
    from tracing import Tracer
    tr = Tracer(enabled=True)
    with tr.span("reduction", "outer"):
        with tr.span("compiler", "inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    times = tr.layer_times()
    outer, inner = times["reduction"], times["compiler"]
    assert outer["calls"] == inner["calls"] == 1
    assert inner["self_s"] == inner["busy_s"] >= 0.02
    assert outer["self_s"] == pytest.approx(
        outer["busy_s"] - inner["busy_s"])
    assert outer["self_s"] >= 0.01
