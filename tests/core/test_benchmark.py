"""Unit and integration tests for the Benchmark Core."""

import pickle
from dataclasses import replace

import pytest

from repro.core.benchmark import FAILED, INVALID, SUCCESS, BenchmarkCore
from repro.core.cost import ClusterSpec, CostMeter
from repro.core.errors import PlatformFailure, SuiteWorkerError
from repro.core.platform_api import GraphHandle, Platform
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm, BenchmarkRunSpec
from repro.graph.generators import rmat_graph
from repro.platforms.pregel.driver import GiraphPlatform
from repro.robustness.faults import FaultPlan


class _BrokenPlatform(Platform):
    """Always computes a wrong CONN labeling (everything else right)."""

    name = "broken"

    def _load(self, name, graph):
        return GraphHandle(name=name, platform=self.name, graph=graph)

    def supported_algorithms(self):
        return [Algorithm.CONN]

    def _execute(self, handle, algorithm, params):
        meter = CostMeter(self.cluster)
        meter.begin_round("compute")
        meter.charge_compute(0, 10)
        meter.end_round()
        wrong = {int(v): -1 for v in handle.graph.vertices}
        return wrong, meter.profile


class _CrashingPlatform(Platform):
    """Fails every run with an out-of-memory error."""

    name = "crashing"

    def _load(self, name, graph):
        return GraphHandle(name=name, platform=self.name, graph=graph)

    def _execute(self, handle, algorithm, params):
        raise PlatformFailure(self.name, "out-of-memory", "synthetic")


class _EtlFailingPlatform(Platform):
    """Fails at graph upload time."""

    name = "etl-fails"

    def _load(self, name, graph):
        raise PlatformFailure(self.name, "out-of-memory", "during ETL")

    def _execute(self, handle, algorithm, params):  # pragma: no cover
        raise AssertionError("never reached")


class _BuggyPlatform(Platform):
    """Raises a bare (non-platform) exception — a harness bug."""

    name = "buggy"

    def _load(self, name, graph):
        return GraphHandle(name=name, platform=self.name, graph=graph)

    def supported_algorithms(self):
        return [Algorithm.BFS]

    def _execute(self, handle, algorithm, params):
        raise RuntimeError("unexpected harness bug")


class _TransientFailure(PlatformFailure):
    transient = True


class _FlakyPlatform(Platform):
    """Fails with a transient error until the configured attempt."""

    name = "flaky"

    def __init__(self, cluster, succeed_on_attempt=2):
        super().__init__(cluster)
        self.succeed_on_attempt = succeed_on_attempt
        self.calls = 0

    def _load(self, name, graph):
        return GraphHandle(name=name, platform=self.name, graph=graph)

    def supported_algorithms(self):
        return [Algorithm.CONN]

    def _execute(self, handle, algorithm, params):
        self.calls += 1
        if self.calls < self.succeed_on_attempt:
            raise _TransientFailure(self.name, "worker-crash", "flaky")
        meter = CostMeter(self.cluster)
        meter.begin_round("compute")
        meter.charge_compute(0, 10)
        meter.end_round()
        labels = {}
        for source, target in handle.graph.to_undirected().iter_edges():
            labels.setdefault(source, source)
            labels.setdefault(target, target)
        return labels, meter.profile


@pytest.fixture
def graphs():
    return {"tiny": rmat_graph(6, edge_factor=4, seed=1)}


class TestSuccessPath:
    def test_full_run_with_validation(self, graphs, cluster_spec):
        core = BenchmarkCore(
            [GiraphPlatform(cluster_spec)], graphs, validator=OutputValidator()
        )
        suite = core.run()
        assert len(suite.results) == len(Algorithm)
        assert all(r.status == SUCCESS for r in suite.results)
        assert all(r.runtime_seconds > 0 for r in suite.results)
        assert all(r.kteps > 0 for r in suite.results)
        assert all(r.samples for r in suite.results)

    def test_runtime_table_layout(self, graphs, cluster_spec):
        core = BenchmarkCore([GiraphPlatform(cluster_spec)], graphs)
        suite = core.run()
        table = suite.runtime_table()
        assert ("BFS", "tiny", "giraph") in table
        assert table[("BFS", "tiny", "giraph")] > 0

    def test_run_spec_subsets(self, graphs, cluster_spec):
        core = BenchmarkCore([GiraphPlatform(cluster_spec)], graphs)
        suite = core.run(BenchmarkRunSpec(algorithms=[Algorithm.BFS]))
        assert [r.algorithm for r in suite.results] == [Algorithm.BFS]


class TestFailurePaths:
    def test_platform_failure_recorded(self, graphs, cluster_spec):
        core = BenchmarkCore([_CrashingPlatform(cluster_spec)], graphs)
        suite = core.run()
        assert all(r.status == FAILED for r in suite.results)
        assert all(r.failure_reason == "out-of-memory" for r in suite.results)
        assert all(r.runtime_seconds is None for r in suite.results)

    def test_etl_failure_fails_all_algorithms(self, graphs, cluster_spec):
        core = BenchmarkCore([_EtlFailingPlatform(cluster_spec)], graphs)
        suite = core.run()
        assert len(suite.results) == len(Algorithm)
        assert all(r.failure_reason == "ETL: out-of-memory" for r in suite.results)

    def test_validation_failure_marked_invalid(self, graphs, cluster_spec):
        core = BenchmarkCore(
            [_BrokenPlatform(cluster_spec)], graphs, validator=OutputValidator()
        )
        suite = core.run()
        (result,) = suite.results
        assert result.status == INVALID
        assert "CONN" in result.failure_reason

    def test_validation_skippable_per_spec(self, graphs, cluster_spec):
        core = BenchmarkCore(
            [_BrokenPlatform(cluster_spec)], graphs, validator=OutputValidator()
        )
        suite = core.run(BenchmarkRunSpec(validate_outputs=False))
        (result,) = suite.results
        assert result.status == SUCCESS

    def test_time_limit(self, graphs, cluster_spec):
        core = BenchmarkCore(
            [GiraphPlatform(cluster_spec)], graphs, time_limit_seconds=1e-6
        )
        suite = core.run()
        assert all(r.status == FAILED for r in suite.results)
        assert all(r.failure_reason == "time-limit" for r in suite.results)

    def test_out_of_memory_failure_end_to_end(self, graphs):
        spec = ClusterSpec.paper_distributed()
        spec = replace(
            spec, hardware=replace(spec.hardware, memory_bytes_per_worker=64.0)
        )
        core = BenchmarkCore([GiraphPlatform(spec)], graphs)
        suite = core.run()
        assert all(not r.succeeded for r in suite.results)
        assert any("out-of-memory" in r.failure_reason for r in suite.results)


class TestConstruction:
    def test_duplicate_platform_names_rejected(self, graphs, cluster_spec):
        with pytest.raises(ValueError, match="duplicate"):
            BenchmarkCore(
                [GiraphPlatform(cluster_spec), GiraphPlatform(cluster_spec)], graphs
            )

    def test_mismatched_handle_rejected(self, graphs, cluster_spec):
        giraph = GiraphPlatform(cluster_spec)
        handle = giraph.upload_graph("tiny", graphs["tiny"])
        other = _BrokenPlatform(cluster_spec)
        with pytest.raises(ValueError, match="loaded into"):
            other.run_algorithm(handle, Algorithm.CONN)


class TestRepetitions:
    def test_repetitions_recorded_and_averaged(self, graphs, cluster_spec):
        core = BenchmarkCore([GiraphPlatform(cluster_spec)], graphs)
        suite = core.run(
            BenchmarkRunSpec(algorithms=[Algorithm.BFS], repetitions=3)
        )
        (result,) = suite.results
        assert len(result.repetition_runtimes) == 3
        assert result.runtime_seconds == pytest.approx(
            sum(result.repetition_runtimes) / 3
        )

    def test_single_repetition_default(self, graphs, cluster_spec):
        core = BenchmarkCore([GiraphPlatform(cluster_spec)], graphs)
        suite = core.run(BenchmarkRunSpec(algorithms=[Algorithm.BFS]))
        (result,) = suite.results
        assert len(result.repetition_runtimes) == 1

    def test_deterministic_platform_repeats_identically(self, graphs, cluster_spec):
        core = BenchmarkCore([GiraphPlatform(cluster_spec)], graphs)
        suite = core.run(
            BenchmarkRunSpec(algorithms=[Algorithm.CONN], repetitions=2)
        )
        (result,) = suite.results
        first, second = result.repetition_runtimes
        assert first == pytest.approx(second)


def _canonical(suite):
    """A suite with every real wall-clock field stripped.

    What remains must be byte-identical between sequential and
    parallel execution — the parallel runner's contract.
    """
    canon = []
    for result in suite.results:
        run = None
        if result.run is not None:
            profile = result.run.profile
            rounds = tuple(
                (
                    record.name,
                    tuple(record.ops_per_worker),
                    tuple(record.random_accesses_per_worker),
                    record.local_messages,
                    record.remote_messages,
                    record.remote_bytes,
                    record.disk_read_bytes,
                    record.disk_write_bytes,
                    record.active_vertices,
                    record.barrier_seconds,
                    record.seconds,
                )
                for record in profile.rounds
            )
            run = (
                result.run.platform,
                result.run.graph_name,
                result.run.algorithm,
                repr(result.run.output),
                rounds,
                profile.simulated_seconds,
                profile.total_messages,
                tuple(profile.peak_memory_per_worker),
            )
        canon.append(
            (
                result.platform,
                result.graph_name,
                result.algorithm,
                result.status,
                result.runtime_seconds,
                result.kteps,
                result.failure_reason,
                tuple(result.repetition_runtimes),
                tuple(result.samples),
                run,
            )
        )
    return canon


class TestParallelRunner:
    def test_parallel_identical_to_sequential(self, cluster_spec):
        graphs = {
            "a": rmat_graph(6, edge_factor=4, seed=1),
            "b": rmat_graph(5, edge_factor=4, seed=2),
        }
        make = lambda: BenchmarkCore(
            [GiraphPlatform(cluster_spec)], graphs, validator=OutputValidator()
        )
        spec = BenchmarkRunSpec(algorithms=[Algorithm.BFS, Algorithm.CONN])
        sequential = make().run(spec)
        parallel = make().run(spec, parallel=2)
        assert _canonical(parallel) == _canonical(sequential)

    def test_parallel_merges_in_spec_order(self, cluster_spec):
        graphs = {
            "a": rmat_graph(5, edge_factor=4, seed=1),
            "b": rmat_graph(5, edge_factor=4, seed=2),
        }
        core = BenchmarkCore([GiraphPlatform(cluster_spec)], graphs)
        suite = core.run(BenchmarkRunSpec(algorithms=[Algorithm.BFS]), parallel=2)
        assert [r.graph_name for r in suite.results] == ["a", "b"]

    def test_parallel_graph_store_identical_to_sequential(
        self, cluster_spec, tmp_path
    ):
        """mmap-shipped graphs change nothing but the transport.

        With ``graph_store`` set, pool workers receive a cache path
        and ``Graph.load(..., mmap=True)`` the CSR arrays instead of
        unpickling the graph; results must stay byte-identical to the
        sequential in-memory run.
        """
        graphs = {
            "a": rmat_graph(6, edge_factor=4, seed=1),
            "b": rmat_graph(5, edge_factor=4, seed=2),
        }
        spec = BenchmarkRunSpec(algorithms=[Algorithm.BFS, Algorithm.CONN])
        sequential = BenchmarkCore([GiraphPlatform(cluster_spec)], graphs).run(
            spec
        )
        store = tmp_path / "graph-store"
        mmapped = BenchmarkCore(
            [GiraphPlatform(cluster_spec)], graphs, graph_store=store
        ).run(spec, parallel=2)
        assert _canonical(mmapped) == _canonical(sequential)
        # One content-addressed entry per distinct graph.
        entries = [p for p in store.iterdir() if (p / "meta.json").is_file()]
        assert len(entries) == 2

    def test_graph_store_entries_are_reused(self, cluster_spec, tmp_path):
        graphs = {
            "a": rmat_graph(5, edge_factor=4, seed=1),
            "b": rmat_graph(5, edge_factor=4, seed=2),
        }
        store = tmp_path / "graph-store"
        make = lambda: BenchmarkCore(
            [GiraphPlatform(cluster_spec)], graphs, graph_store=store
        )
        make().run(BenchmarkRunSpec(algorithms=[Algorithm.BFS]), parallel=2)
        entry = next(p for p in store.iterdir() if (p / "meta.json").is_file())
        stamp = (entry / "meta.json").stat().st_mtime_ns
        make().run(BenchmarkRunSpec(algorithms=[Algorithm.BFS]), parallel=2)
        assert (entry / "meta.json").stat().st_mtime_ns == stamp

    def test_parallel_preserves_failures(self, graphs, cluster_spec):
        core = BenchmarkCore([_EtlFailingPlatform(cluster_spec)], graphs)
        suite = core.run(parallel=2)
        assert suite.results
        assert all(r.status == FAILED for r in suite.results)
        assert all("ETL" in r.failure_reason for r in suite.results)


class TestGracefulDegradation:
    def test_unexpected_error_becomes_failed_cell(self, graphs, cluster_spec):
        core = BenchmarkCore([_BuggyPlatform(cluster_spec)], graphs)
        suite = core.run()
        (result,) = suite.results
        assert result.status == FAILED
        assert result.failure_reason == "error: RuntimeError: unexpected harness bug"

    def test_strict_mode_raises_with_combo_context(self, graphs, cluster_spec):
        core = BenchmarkCore([_BuggyPlatform(cluster_spec)], graphs, strict=True)
        with pytest.raises(SuiteWorkerError) as error:
            core.run()
        assert error.value.platform == "buggy"
        assert error.value.graph_name == "tiny"
        assert "RuntimeError" in error.value.detail
        assert "BFS" in error.value.detail

    def test_degraded_suite_keeps_running(self, graphs, cluster_spec):
        """A buggy platform costs its own cells, not the suite."""
        core = BenchmarkCore(
            [_BuggyPlatform(cluster_spec), GiraphPlatform(cluster_spec)], graphs
        )
        suite = core.run(BenchmarkRunSpec(algorithms=[Algorithm.BFS]))
        by_platform = {r.platform: r for r in suite.results}
        assert by_platform["buggy"].status == FAILED
        assert by_platform["giraph"].status == SUCCESS


class TestWorkerErrorContext:
    """Regression: parallel worker exceptions keep their combo."""

    def test_parallel_strict_error_names_the_combo(self, graphs, cluster_spec):
        core = BenchmarkCore(
            [_BuggyPlatform(cluster_spec), GiraphPlatform(cluster_spec)],
            graphs,
            strict=True,
        )
        with pytest.raises(SuiteWorkerError) as error:
            core.run(BenchmarkRunSpec(algorithms=[Algorithm.BFS]), parallel=2)
        # The (platform, graph) combo survived the process boundary.
        assert error.value.platform == "buggy"
        assert error.value.graph_name == "tiny"

    def test_worker_error_survives_pickling(self):
        original = SuiteWorkerError("giraph", "patents", "BFS: KeyError: 7")
        clone = pickle.loads(pickle.dumps(original))
        assert isinstance(clone, SuiteWorkerError)
        assert clone.platform == "giraph"
        assert clone.graph_name == "patents"
        assert clone.detail == "BFS: KeyError: 7"
        assert str(clone) == str(original)


class TestRetry:
    def test_transient_failure_retried_until_success(self, graphs, cluster_spec):
        platform = _FlakyPlatform(cluster_spec, succeed_on_attempt=3)
        core = BenchmarkCore(
            [platform], graphs, max_retries=2, retry_backoff_seconds=0.5
        )
        suite = core.run()
        (result,) = suite.results
        assert result.status == SUCCESS
        assert result.attempts == 3
        # Linear backoff: 1*0.5 + 2*0.5.
        assert result.backoff_seconds == pytest.approx(1.5)

    def test_retry_budget_exhausted_records_failure(self, graphs, cluster_spec):
        platform = _FlakyPlatform(cluster_spec, succeed_on_attempt=5)
        core = BenchmarkCore([platform], graphs, max_retries=1)
        suite = core.run()
        (result,) = suite.results
        assert result.status == FAILED
        assert result.failure_reason == "worker-crash"
        assert result.attempts == 2

    def test_permanent_failures_never_retried(self, graphs, cluster_spec):
        core = BenchmarkCore([_CrashingPlatform(cluster_spec)], graphs, max_retries=3)
        suite = core.run()
        assert all(r.attempts == 1 for r in suite.results)

    def test_negative_retries_rejected(self, graphs, cluster_spec):
        with pytest.raises(ValueError, match="max_retries"):
            BenchmarkCore([GiraphPlatform(cluster_spec)], graphs, max_retries=-1)

    def test_fault_plan_flows_through_parallel_runner(self, cluster_spec):
        """Injected transient faults retry identically in pool workers."""
        graphs = {"tiny": rmat_graph(5, edge_factor=4, seed=3)}
        plan = FaultPlan(crash_worker=0, crash_round=0, transient_attempts=1)
        make = lambda: BenchmarkCore(
            [GiraphPlatform(cluster_spec)],
            graphs,
            fault_plan=plan,
            max_retries=1,
        )
        spec = BenchmarkRunSpec(algorithms=[Algorithm.BFS])
        sequential = make().run(spec)
        parallel = make().run(spec, parallel=2)
        for suite in (sequential, parallel):
            (result,) = suite.results
            assert result.status == SUCCESS
            assert result.attempts == 2
        assert _canonical(sequential) == _canonical(parallel)
