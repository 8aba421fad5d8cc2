"""Trace replay: JSONL traces re-aggregate to exact run profiles."""

import json

import pytest

from repro.core.cost import ClusterSpec, CostMeter
from repro.core.workload import Algorithm, AlgorithmParams
from repro.observability import (
    JsonlTraceWriter,
    parse_trace,
    profile_fingerprint,
    read_trace,
    replay_trace,
    verify_replay,
)
from repro.platforms.pregel.driver import GiraphPlatform
from repro.robustness.faults import FaultInjector, FaultPlan


def _traced_bfs(tmp_path, cluster_spec, small_rmat):
    platform = GiraphPlatform(cluster_spec)
    handle = platform.upload_graph("tiny", small_rmat)
    writer = JsonlTraceWriter(tmp_path / "bfs.jsonl")
    platform.sinks = (writer,)
    try:
        run = platform.run_algorithm(handle, Algorithm.BFS, AlgorithmParams())
    finally:
        platform.sinks = ()
        writer.close()
    return writer.path, run


class TestReplayExactness:
    def test_replay_reconstructs_exact_profile(
        self, tmp_path, cluster_spec, small_rmat
    ):
        path, run = _traced_bfs(tmp_path, cluster_spec, small_rmat)
        replayed = replay_trace(path)
        assert profile_fingerprint(replayed) == profile_fingerprint(
            run.profile
        )
        # Bit-exact, not approximately equal: JSON round-trips floats.
        assert replayed.simulated_seconds == run.profile.simulated_seconds

    def test_verify_replay_clean(self, tmp_path, cluster_spec, small_rmat):
        path, run = _traced_bfs(tmp_path, cluster_spec, small_rmat)
        assert verify_replay(path, run.profile) == []

    def test_run_end_carries_launches(self, tmp_path, cluster_spec, small_rmat):
        path, run = _traced_bfs(tmp_path, cluster_spec, small_rmat)
        (attempt,) = parse_trace(read_trace(path))
        assert attempt.launches == run.profile.launches == 1
        assert replay_trace(path).launches == 1
        doctored = [
            {**event, "launches": 2} if event["event"] == "run-end" else event
            for event in read_trace(path)
        ]
        path.write_text("\n".join(json.dumps(e) for e in doctored) + "\n")
        assert verify_replay(path, run.profile) == [
            "launches: trace has 2, profile has 1"
        ]

    def test_verify_replay_detects_tampering(
        self, tmp_path, cluster_spec, small_rmat
    ):
        path, run = _traced_bfs(tmp_path, cluster_spec, small_rmat)
        lines = path.read_text().splitlines()
        doctored = []
        for line in lines:
            event = json.loads(line)
            if event["event"] == "round" and event["index"] == 1:
                event["compute_seconds"] += 1.0
            doctored.append(json.dumps(event))
        path.write_text("\n".join(doctored) + "\n")
        mismatches = verify_replay(path, run.profile)
        assert mismatches
        assert any("round 1" in m for m in mismatches)

    def test_infinite_bandwidth_survives_round_trip(
        self, tmp_path, small_rmat
    ):
        # The single-node spec carries network_bandwidth=inf; JSON's
        # non-strict Infinity must round-trip through the trace.
        spec = ClusterSpec.paper_single_node()
        writer = JsonlTraceWriter(tmp_path / "t.jsonl")
        writer.on_run_begin("neo4j", "tiny", "BFS", spec)
        meter = CostMeter(spec, sinks=(writer,))
        meter.begin_round("scan", barrier=False)
        meter.charge_compute(0, 1000)
        meter.end_round()
        writer.on_run_end(meter.profile, "success")
        writer.close()
        replayed = replay_trace(writer.path)
        assert replayed.cluster == spec


class TestFaultAnnotations:
    def test_crash_annotated_and_attempt_incomplete(
        self, tmp_path, cluster_spec, small_rmat
    ):
        platform = GiraphPlatform(cluster_spec)
        handle = platform.upload_graph("tiny", small_rmat)
        injector = FaultInjector(
            FaultPlan(crash_worker=2, crash_round=3), "giraph"
        )
        injector.begin_attempt()
        platform.faults = injector
        writer = JsonlTraceWriter(tmp_path / "crash.jsonl")
        platform.sinks = (writer,)
        try:
            with pytest.raises(Exception):
                platform.run_algorithm(
                    handle, Algorithm.BFS, AlgorithmParams()
                )
        finally:
            platform.sinks = ()
            platform.faults = None
            writer.close()
        (attempt,) = parse_trace(read_trace(writer.path))
        assert attempt.status == "worker-crash"
        assert not attempt.complete
        assert [f["kind"] for f in attempt.faults] == ["worker-crash"]
        assert attempt.faults[0]["round"] == 3
        with pytest.raises(ValueError, match="no completed attempt"):
            replay_trace(writer.path)

    def test_replay_uses_last_completed_attempt(self, tmp_path, cluster_spec):
        writer = JsonlTraceWriter(tmp_path / "retry.jsonl")
        writer.on_run_begin("giraph", "g", "BFS", cluster_spec)
        writer.on_run_end(None, "worker-crash")
        writer.on_run_begin("giraph", "g", "BFS", cluster_spec)
        meter = CostMeter(cluster_spec, sinks=(writer,))
        meter.begin_round("r0")
        meter.charge_compute(0, 500)
        meter.end_round()
        writer.on_run_end(meter.profile, "success")
        writer.close()
        replayed = replay_trace(writer.path)
        assert profile_fingerprint(replayed) == profile_fingerprint(
            meter.profile
        )

    def test_event_before_run_begin_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "round", "index": 0}\n')
        with pytest.raises(ValueError, match="before any run-begin"):
            parse_trace(read_trace(path))


def test_benchmark_core_traces_verify(tmp_path, cluster_spec, small_rmat):
    """The per-cell traces the Benchmark Core writes replay exactly."""
    from repro.core.benchmark import BenchmarkCore
    from repro.core.workload import BenchmarkRunSpec

    platform = GiraphPlatform(cluster_spec)
    core = BenchmarkCore(
        [platform], {"tiny": small_rmat}, trace_dir=tmp_path
    )
    suite = core.run(BenchmarkRunSpec(algorithms=[Algorithm.BFS]))
    (result,) = suite.results
    assert result.succeeded
    assert result.trace_path is not None
    assert verify_replay(result.trace_path, result.run.profile) == []
    # The per-cell writer is detached afterwards: no sink leaks.
    assert platform.sinks == ()
