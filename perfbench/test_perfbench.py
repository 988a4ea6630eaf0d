"""Tests of the benchmark itself: python -m pytest perfbench/test_perfbench.py"""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

import gen
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    def inputs(seed):
        return json.dumps([gen.ROUNDS[workload](seed, i) for i in range(2)]).encode()

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


@pytest.mark.parametrize("workload,limit", [
    ("decide-mixed", 6), ("sweep-cli", 3), ("moments-spread", 8)])
def test_traced_pass_gives_the_same_outputs(workload, limit):
    args = ("--calls", str(limit), "--max-seconds", "inf")
    plain = run.run_worker(workload, 3, *args)
    traced = run.run_worker(workload, 3, *args, "--trace")
    assert len(plain["latencies"]) == limit
    assert traced["outcomes"] == plain["outcomes"]
    assert traced["digest"] == plain["digest"]


def _result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _result(workload, 1)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["attempted"] >= 1


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result("moments-spread", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "decide-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_metrics_split_decide_time():
    """Comparison = the matching splines the trace counts; witness = the rest."""
    tracer = spans.Tracer()
    tracer.spans = [
        [spans.DECIDE, 0.0, 10.0, -1, 0, True, 1],
        [spans.MATCHING, 1.0, 3.0, 0, 0, True, None],
        ["representations.solve_structure", 1.5, 2.5, 1, 0, False, None],
        [spans.ORACLE, 1.6, 2.0, 2, 0, True, None],
        [spans.MATCHING, 5.0, 6.0, 0, 0, True, None],  # inside the witness build
    ]
    m = spans.layer_metrics(tracer, calls=1)
    assert m["kolmogorov.comparison_splines_per_decide"] == 1
    assert m["kolmogorov.comparison.s"] == pytest.approx(2.0)
    assert m["kolmogorov.witness.s"] == pytest.approx(7.0)
    assert m["kolmogorov.self_s"] == pytest.approx(10.0 - 3.0 + 2.0 - 1.0 + 1.0)
    assert m["representations.solve_structure.self_s"] == pytest.approx(0.6)
    assert m["representations.solve_structure.useful_ratio"] == 0.0
