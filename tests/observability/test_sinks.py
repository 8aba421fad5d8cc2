"""Unit tests for the trace sinks and the zero-overhead contract."""

import json

import pytest

from repro.core.cost import CostMeter, MemoryBudgetExceeded
from repro.core.monitor import SystemMonitor
from repro.observability import (
    InMemoryAggregator,
    JsonlTraceWriter,
    MonitorSink,
    TraceSink,
    profile_fingerprint,
)


def _metered_run(cluster_spec, sinks=()):
    """A small deterministic charge sequence exercising every event."""
    meter = CostMeter(cluster_spec, sinks=sinks)
    meter.charge_startup()
    meter.begin_round("load")
    meter.allocate_memory(0, 4096.0)
    meter.charge_disk_read(0, 1e6)
    meter.charge_compute(0, 50_000)
    meter.end_round(active_vertices=100)
    meter.begin_round("superstep-0")
    meter.charge_compute(0, 10_000)
    meter.charge_random_access(1, 5_000)
    meter.charge_message(0, 1, 8.0)
    meter.charge_message(1, 1, 8.0, count=10)
    meter.charge_shuffle(2048.0, count=4)
    meter.charge_disk_write(1, 2e5)
    meter.release_memory(0, 2048.0)
    meter.end_round(active_vertices=40)
    return meter.profile


class TestZeroOverheadContract:
    def test_no_sinks_is_empty_tuple(self, cluster_spec):
        assert CostMeter(cluster_spec).sinks == ()

    def test_profile_identical_with_and_without_sinks(self, cluster_spec):
        bare = _metered_run(cluster_spec)
        observed = _metered_run(
            cluster_spec, sinks=(InMemoryAggregator(), TraceSink())
        )
        assert profile_fingerprint(bare) == profile_fingerprint(observed)

    def test_base_sink_ignores_every_event(self, cluster_spec):
        # TraceSink is the documented no-op: attaching it must never
        # raise, whatever the charge mix.
        _metered_run(cluster_spec, sinks=(TraceSink(),))


class TestInMemoryAggregator:
    def test_totals_match_profile(self, cluster_spec):
        aggregator = InMemoryAggregator()
        profile = _metered_run(cluster_spec, sinks=(aggregator,))
        assert aggregator.rounds == profile.num_rounds
        assert aggregator.remote_bytes == profile.total_remote_bytes
        assert aggregator.messages == profile.total_messages
        assert aggregator.simulated_seconds == pytest.approx(
            profile.simulated_seconds - profile.startup_seconds
        )
        assert aggregator.charge_counts["message"] == 2
        assert aggregator.charge_counts["shuffle"] == 1
        assert aggregator.charge_counts["disk-read"] == 1
        assert aggregator.charge_counts["disk-write"] == 1
        assert aggregator.charge_counts["startup"] == 1
        # allocate + release both stream as memory charges.
        assert aggregator.charge_counts["memory"] == 2

    def test_summary_is_plain_dict(self, cluster_spec):
        aggregator = InMemoryAggregator()
        _metered_run(cluster_spec, sinks=(aggregator,))
        summary = aggregator.summary()
        assert summary["rounds"] == 2
        assert json.dumps(summary)  # JSON-serializable

    def test_oom_recorded_as_fault(self, tiny_memory_spec):
        aggregator = InMemoryAggregator()
        meter = CostMeter(tiny_memory_spec, sinks=(aggregator,))
        meter.begin_round("load")
        with pytest.raises(MemoryBudgetExceeded):
            meter.allocate_memory(0, 1e9)
        assert aggregator.faults == {"out-of-memory": 1}


class TestJsonlTraceWriter:
    def test_file_created_lazily(self, tmp_path):
        writer = JsonlTraceWriter(tmp_path / "deep" / "trace.jsonl")
        assert not writer.path.exists()
        writer.on_fault("test", 0, "detail")
        writer.close()
        assert writer.path.exists()

    def test_close_is_idempotent(self, tmp_path, cluster_spec):
        writer = JsonlTraceWriter(tmp_path / "trace.jsonl")
        _metered_run(cluster_spec, sinks=(writer,))
        writer.close()
        writer.close()

    def test_span_per_round_with_charges_off(self, tmp_path, cluster_spec):
        writer = JsonlTraceWriter(tmp_path / "trace.jsonl")
        with writer:
            profile = _metered_run(cluster_spec, sinks=(writer,))
        events = [
            json.loads(line)
            for line in writer.path.read_text().splitlines()
        ]
        spans = [e for e in events if e["event"] == "round"]
        assert len(spans) == profile.num_rounds
        assert [s["name"] for s in spans] == ["load", "superstep-0"]
        # Default mode: spans only, no fine-grained charge stream.
        assert not [e for e in events if e["event"] == "charge"]

    def test_charges_mode_streams_charge_events(self, tmp_path, cluster_spec):
        writer = JsonlTraceWriter(tmp_path / "trace.jsonl", charges=True)
        with writer:
            _metered_run(cluster_spec, sinks=(writer,))
        events = [
            json.loads(line)
            for line in writer.path.read_text().splitlines()
        ]
        kinds = {e["kind"] for e in events if e["event"] == "charge"}
        assert {"startup", "message", "shuffle", "disk-read",
                "disk-write", "memory"} <= kinds

    def test_attempts_accumulate_in_one_file(self, tmp_path, cluster_spec):
        writer = JsonlTraceWriter(tmp_path / "trace.jsonl")
        with writer:
            writer.on_run_begin("giraph", "g", "BFS", cluster_spec)
            writer.on_run_end(None, "worker-crash")
            writer.on_run_begin("giraph", "g", "BFS", cluster_spec)
            profile = _metered_run(cluster_spec, sinks=(writer,))
            writer.on_run_end(profile, "success")
        assert writer.attempt == 2
        events = [
            json.loads(line)
            for line in writer.path.read_text().splitlines()
        ]
        begins = [e for e in events if e["event"] == "run-begin"]
        assert [e["attempt"] for e in begins] == [1, 2]
        ends = [e for e in events if e["event"] == "run-end"]
        assert [e["status"] for e in ends] == ["worker-crash", "success"]
        assert "simulated_seconds" in ends[1]
        assert "simulated_seconds" not in ends[0]


class TestMonitorSink:
    def test_streamed_series_equals_profile_replay(self, cluster_spec):
        sink = MonitorSink()
        profile = _metered_run(cluster_spec, sinks=(sink,))
        assert sink.samples == SystemMonitor().samples_from_profile(profile)

    def test_run_begin_resets_clock(self, cluster_spec):
        sink = MonitorSink()
        profile = _metered_run(cluster_spec, sinks=(sink,))
        first = list(sink.samples)
        sink.on_run_begin("giraph", "g", "BFS", cluster_spec)
        sink.replay_profile(profile)
        assert sink.samples == first
