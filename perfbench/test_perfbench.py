"""Self-tests of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run, speed, workloads
from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES
from perfbench.spans import SpanRecorder, instrument

ROOT = Path(__file__).resolve().parent.parent

#: Small enough to run in-process in a couple of seconds, and touching
#: every suite layer: ETL, repetitions, validation, SSSP weights,
#: results-db rows and cell traces.
TINY = workloads.SuiteWorkload(
    name="tiny",
    platforms=("giraph", "mapreduce"),
    graphs=("graph500-6", "road-8"),
    algorithms=("BFS", "SSSP"),
    repetitions=2,
    results_db=True,
    traces=True,
)


def _cell(platform: str, algorithm: str, status: str, digest: str) -> dict:
    return {
        "op": f"{platform}/g/{algorithm}",
        "platform": platform,
        "algorithm": algorithm,
        "status": status,
        "reason": None if status == "success" else "output disagrees",
        "digest": digest,
    }


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, TINY.name, TINY)
    return TINY.name


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_changed_fingerprint_and_invalid_cell_each_count_once():
    golden = {"giraph/g/BFS": "a", "giraph/g/CONN": "b",
              "graphx/g/BFS": "c", "graphx/g/CONN": "d"}
    cells = [
        _cell("giraph", "BFS", "success", "a"),
        _cell("giraph", "CONN", "success", "changed"),
        _cell("graphx", "BFS", "invalid", "c"),
        _cell("graphx", "CONN", "invalid", "changed"),
    ]
    failures = workloads.cell_failures(cells, golden, {})
    assert [f["op"] for f in failures] == [
        "giraph/g/CONN", "graphx/g/BFS", "graphx/g/CONN"
    ]
    assert not any(f["expected"] for f in failures)
    record = {"ops": len(cells), "failures": failures, "problems": []}
    result = run.summarize("w", [record], {"wall_s": 1.0}, {"wall_s": "s"})
    assert (result["attempted"], result["failed"]) == (4, 3)
    assert result["correct"] is False


def test_known_failure_is_expected_only_with_its_golden_fingerprint():
    known = {("graphx", "BFS"): "iteration cap"}
    golden = {"graphx/g/BFS": "c"}
    kept = workloads.cell_failures(
        [_cell("graphx", "BFS", "invalid", "c")], golden, known
    )
    drifted = workloads.cell_failures(
        [_cell("graphx", "BFS", "invalid", "x")], golden, known
    )
    assert [f["expected"] for f in kept] == [True]
    assert "known defect: iteration cap" in kept[0]["reason"]
    assert [f["expected"] for f in drifted] == [False]
    record = {"ops": 1, "failures": kept, "problems": []}
    result = run.summarize("w", [record], {"wall_s": 1.0}, {"wall_s": "s"})
    assert (result["correct"], result["failed"]) == (True, 1)


def test_traced_fingerprint_drift_is_one_failed_op_per_cell(monkeypatch):
    def record(fingerprints, failures, mode):
        layers = {name: 0.0 for name in PER_LAYER if not name.startswith("bench.")}
        wall = 2.0 if mode == "traced" else 1.0
        return {
            "ops": 2, "wall_s": wall, "wall_ref_s": wall / 2,
            "fingerprints": fingerprints, "failures": failures,
            "problems": [], "layers": layers,
        }

    invalid = {"op": "b", "reason": "invalid: wrong output", "expected": True}
    records = {
        "plain": record({"a": "1", "b": "2"}, [dict(invalid)], "plain"),
        "traced": record({"a": "x", "b": "y"}, [dict(invalid)], "traced"),
    }
    monkeypatch.setattr(
        run, "run_child", lambda workload, seed, mode, deadline: records[mode]
    )
    passes, metrics = run.traced_run("w", 1, deadline=0.0)
    result = run.summarize("w", passes, metrics, PER_LAYER)
    assert (result["attempted"], result["failed"]) == (4, 3)
    assert result["correct"] is False
    assert metrics["bench.trace_overhead"] == 2.0


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES
    assert tuple(workloads.WORKLOADS) == WORKLOAD_NAMES


def test_golden_covers_every_cell_of_the_suite_workloads():
    golden = workloads.load_golden()
    assert golden["seed"] == workloads.DEFAULT_SEED
    for name, workload in workloads.WORKLOADS.items():
        if isinstance(workload, workloads.SuiteWorkload):
            cells = len(workload.platforms) * len(workload.graphs) * len(
                workload.algorithms
            )
            assert len(golden["digests"][name]) == cells


def test_traced_pass_keeps_fingerprints_and_accounts_for_its_wall(tiny, tmp_path):
    plain = workloads.run_pass(
        tiny, 3, tmp_path / "plain", traced=False, started=time.perf_counter()
    )
    traced = workloads.run_pass(
        tiny, 3, tmp_path / "traced", traced=True, started=time.perf_counter()
    )
    assert plain["ops"] == traced["ops"] == 8
    assert traced["fingerprints"] == plain["fingerprints"]
    assert None not in plain["fingerprints"].values()
    assert plain["problems"] == traced["problems"] == []
    assert plain["failures"] == traced["failures"] == []
    layers = traced["layers"]
    assert set(layers) == {n for n in PER_LAYER if not n.startswith("bench.")}
    assert layers["exec.calls"] == 16
    assert layers["exec.useful_ratio"] == 0.5
    assert layers["resultsdb.rows"] == 8
    assert layers["trace.spans"] == layers["exec.rounds"] > 0
    assert layers["trace.bytes"] > 0
    assert layers["validate.useful_ratio"] == 0.5


def test_probe_scales_host_seconds_to_the_reference_core():
    probe = speed.SpeedProbe()
    slow = 2 * speed.REFERENCE_LOOP_S
    probe.samples = [(0.0, slow), (1.0, slow), (2.0, slow / 8), (9.0, 1.0)]
    # Two of the three loops in the window ran at half speed.
    assert probe.loop_seconds(0.0, 2.0) == slow
    assert probe.scaled(3.0, 0.0, 2.0) == 1.5
    with speed.SpeedProbe() as live:
        time.sleep(0.1)
    assert live.samples
    assert not live._thread.is_alive()


def test_instrument_restores_every_entry_point():
    from repro import analysis
    from repro.core.cost import CostMeter
    from repro.core.platform_api import Platform
    from repro.datasets import catalog
    from repro.observability.sinks import JsonlTraceWriter

    before = (
        dict(vars(CostMeter)), dict(vars(Platform)),
        dict(vars(JsonlTraceWriter)), catalog.load_dataset,
        analysis.analyze_tree,
    )
    with instrument(SpanRecorder()):
        assert catalog.load_dataset is not before[3]
    after = (
        dict(vars(CostMeter)), dict(vars(Platform)),
        dict(vars(JsonlTraceWriter)), catalog.load_dataset,
        analysis.analyze_tree,
    )
    assert after == before


def test_self_times_partition_nested_spans():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("harness"):      # 0 .. 9
        with recorder.span("exec"):     # 1 .. 6
            with recorder.span("cost"):  # 2 .. 3
                pass
            with recorder.span("exec"):  # 4 .. 5, nested in itself
                pass
        with recorder.span("report"):   # 7 .. 8
            pass
    assert recorder.inclusive["harness"] == 9.0
    assert recorder.inclusive["exec"] == 5.0
    assert dict(recorder.self_time) == {
        "cost": 1.0, "exec": 4.0, "report": 1.0, "harness": 3.0
    }
    assert sum(recorder.self_time.values()) == recorder.inclusive["harness"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_with_its_unit(trace):
    process = _run(
        "--workload", "paper-suite", "--seed", "1", "--seconds", "1",
        "--trace", trace,
    )
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["failed"]) == (True, 0)
    expected = END_TO_END if trace == "0" else PER_LAYER
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    assert all(
        isinstance(metric["value"], (int, float))
        for metric in result["metrics"].values()
    )


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    process = _run(
        "--workload", "paper-suite", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert process.returncode != 0
    assert '"metrics"' not in process.stdout
