"""Unit tests for cross-run metrics loading and regression flagging."""

import dataclasses
import json

import pytest

from repro.observability.analyze import (
    RunMetrics,
    compare_metrics,
    load_metrics,
)


def _metrics(**overrides):
    base = RunMetrics(
        platform="giraph",
        graph="tiny",
        algorithm="BFS",
        status="success",
        simulated_seconds=10.0,
        remote_bytes=1e6,
        num_rounds=8,
        dominant="skew",
    )
    return dataclasses.replace(base, **overrides)


def _keyed(*metrics):
    return {m.key: m for m in metrics}


class TestCompare:
    def test_identical_runs_have_no_regressions(self):
        old = _keyed(_metrics())
        assert compare_metrics(old, dict(old)) == []

    def test_growth_within_threshold_tolerated(self):
        old = _keyed(_metrics())
        new = _keyed(_metrics(simulated_seconds=10.4))
        assert compare_metrics(old, new, threshold=0.05) == []

    def test_time_regression_flagged(self):
        old = _keyed(_metrics())
        new = _keyed(_metrics(simulated_seconds=12.0))
        (regression,) = compare_metrics(old, new, threshold=0.05)
        assert regression.metric == "simulated_seconds"
        assert "20.0%" in regression.detail

    def test_bytes_rounds_and_dominant_flagged_together(self):
        old = _keyed(_metrics())
        new = _keyed(
            _metrics(
                remote_bytes=2e6, num_rounds=16, dominant="network"
            )
        )
        metrics = {r.metric for r in compare_metrics(old, new)}
        assert metrics == {"remote_bytes", "num_rounds", "dominant"}

    def test_improvements_never_flagged(self):
        old = _keyed(_metrics())
        new = _keyed(
            _metrics(simulated_seconds=5.0, remote_bytes=1.0, num_rounds=2)
        )
        assert compare_metrics(old, new) == []

    def test_missing_run_flagged(self):
        assert compare_metrics(_keyed(_metrics()), {})[0].metric == "presence"

    def test_new_extra_run_ignored(self):
        extra = _metrics(platform="graphx")
        assert compare_metrics({}, _keyed(extra)) == []

    def test_success_to_failure_flagged_once(self):
        old = _keyed(_metrics())
        new = _keyed(
            _metrics(
                status="failed",
                simulated_seconds=None,
                remote_bytes=None,
                num_rounds=None,
                dominant=None,
            )
        )
        (regression,) = compare_metrics(old, new)
        assert regression.metric == "status"

    def test_describe_names_the_cell(self):
        old = _keyed(_metrics())
        new = _keyed(_metrics(simulated_seconds=100.0))
        (regression,) = compare_metrics(old, new)
        assert regression.describe().startswith("giraph/tiny/bfs:")


class TestLoadMetrics:
    def test_load_from_trace(self, tmp_path, cluster_spec, small_rmat):
        from repro.core.workload import Algorithm, AlgorithmParams
        from repro.observability import JsonlTraceWriter
        from repro.platforms.pregel.driver import GiraphPlatform

        platform = GiraphPlatform(cluster_spec)
        handle = platform.upload_graph("tiny", small_rmat)
        writer = JsonlTraceWriter(tmp_path / "t.jsonl")
        platform.sinks = (writer,)
        run = platform.run_algorithm(handle, Algorithm.BFS, AlgorithmParams())
        platform.sinks = ()
        writer.close()
        metrics = load_metrics(writer.path)
        entry = metrics[("giraph", "tiny", "BFS")]
        assert entry.simulated_seconds == run.profile.simulated_seconds
        assert entry.num_rounds == run.profile.num_rounds
        assert entry.dominant == run.profile.breakdown().dominant()

    def test_load_from_results_db(self, tmp_path):
        rows = [
            {
                "platform": "giraph",
                "graph": "tiny",
                "algorithm": "BFS",
                "status": "success",
                "runtime_seconds": 3.0,
                "num_rounds": 5,
                "remote_bytes": 10.0,
                "dominant_chokepoint": "network",
            }
        ]
        path = tmp_path / "db.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        entry = load_metrics(path)[("giraph", "tiny", "BFS")]
        assert entry.simulated_seconds == 3.0
        assert entry.dominant == "network"

    def test_load_from_submission_document(self, tmp_path):
        document = {
            "schema": "graphalytics-results-v1",
            "system": {},
            "results": [
                {
                    "platform": "neo4j",
                    "graph": "patents",
                    "algorithm": "CONN",
                    "status": "success",
                    "runtime_seconds": 42.0,
                }
            ],
        }
        path = tmp_path / "submission.json"
        path.write_text(json.dumps(document))
        entry = load_metrics(path)[("neo4j", "patents", "CONN")]
        assert entry.simulated_seconds == 42.0

    def test_latest_duplicate_wins(self, tmp_path):
        rows = [
            {"platform": "g", "graph": "t", "algorithm": "BFS",
             "status": "success", "runtime_seconds": 9.0},
            {"platform": "g", "graph": "t", "algorithm": "BFS",
             "status": "success", "runtime_seconds": 4.0},
        ]
        path = tmp_path / "db.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert load_metrics(path)[("g", "t", "BFS")].simulated_seconds == 4.0

    def test_unrecognized_file_rejected(self, tmp_path):
        path = tmp_path / "nonsense.jsonl"
        path.write_text('{"unrelated": true}\n')
        with pytest.raises(ValueError, match="no benchmark runs"):
            load_metrics(path)
