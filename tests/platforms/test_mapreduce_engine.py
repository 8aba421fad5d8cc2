"""Unit tests for the MapReduce engine."""

import pytest

from repro.core.cost import CostMeter
from repro.platforms.mapreduce.engine import (
    HDFS_REPLICATION,
    MapReduceEngine,
    MapReduceJob,
    record_size,
)


class _WordCount(MapReduceJob):
    """The canonical example: counts words in (line_no, text) records."""

    name = "wordcount"

    def map(self, key, value, counters):
        """Emit (word, 1) per word."""
        for word in value.split():
            yield word, 1

    def combine(self, key, values):
        """Pre-sum on the map side."""
        return [sum(values)]

    def reduce(self, key, values, counters):
        """Sum the counts."""
        counters["words"] = counters.get("words", 0) + 1
        yield key, sum(values)


class _IdentityJob(MapReduceJob):
    """Pass-through job."""

    name = "identity"

    def map(self, key, value, counters):
        """Forward the record."""
        yield key, value

    def reduce(self, key, values, counters):
        """Forward each value."""
        for value in values:
            yield key, value


@pytest.fixture
def engine(cluster_spec):
    return MapReduceEngine(cluster_spec)


class TestExecution:
    def test_wordcount(self, engine):
        records = [(0, "a b a"), (1, "b c"), (2, "a")]
        result = engine.run_job(_WordCount(), records)
        assert dict(result.output) == {"a": 3, "b": 2, "c": 1}
        assert result.counters["words"] == 3

    def test_deterministic_output_order(self, engine, cluster_spec):
        records = [(i, f"w{i % 5}") for i in range(50)]
        a = engine.run_job(_WordCount(), records).output
        b = MapReduceEngine(cluster_spec).run_job(_WordCount(), records).output
        assert a == b

    def test_empty_input(self, engine):
        result = engine.run_job(_WordCount(), [])
        assert result.output == []

    def test_chained_jobs(self, engine):
        first = engine.run_job(_WordCount(), [(0, "x y x")])
        second = engine.run_job(_IdentityJob(), first.output)
        assert dict(second.output) == {"x": 2, "y": 1}


class TestCosts:
    def test_three_phases_per_job(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        engine = MapReduceEngine(cluster_spec, meter)
        engine.run_job(_WordCount(), [(0, "a b")])
        names = [r.name for r in meter.profile.rounds]
        assert names == [
            "map-wordcount",
            "shuffle-wordcount",
            "reduce-wordcount",
        ]

    def test_job_startup_charged(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        engine = MapReduceEngine(cluster_spec, meter)
        engine.run_job(_IdentityJob(), [(0, 1)])
        engine.run_job(_IdentityJob(), [(0, 1)])
        startup_seconds = cluster_spec.hardware.startup_seconds
        assert meter.profile.startup_seconds == 2 * startup_seconds

    def test_hdfs_replication_written(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        engine = MapReduceEngine(cluster_spec, meter)
        result = engine.run_job(_IdentityJob(), [(0, 1), (1, 2)])
        reduce_round = meter.profile.rounds[-1]
        output_bytes = sum(record_size(k, v) for k, v in result.output)
        assert reduce_round.disk_write_bytes == output_bytes * HDFS_REPLICATION

    def test_streaming_memory_is_constant(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        engine = MapReduceEngine(cluster_spec, meter)
        small_peak = meter.profile.peak_memory
        engine.run_job(_WordCount(), [(i, "a b c") for i in range(1000)])
        # Only the fixed sort buffers are resident; input size does
        # not change the footprint.
        assert meter.profile.peak_memory == small_peak
        engine.close()
        assert meter.memory_in_use(0) == 0.0

    def test_shuffle_crosses_network(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        engine = MapReduceEngine(cluster_spec, meter)
        engine.run_job(_WordCount(), [(i, f"word{i}") for i in range(100)])
        assert meter.profile.total_remote_bytes > 0


class TestRecordSize:
    def test_scalar_record(self):
        assert record_size(1, 2) == 24.0

    def test_collection_record(self):
        assert record_size(1, (1, 2, 3)) == 24.0 + 3 * 8.0

    def test_nested_collection(self):
        size = record_size(1, ((1, 2), 3))
        assert size == 24.0 + 2 * 8.0 + 2 * 8.0
