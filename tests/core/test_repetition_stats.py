"""Repetition statistics end to end: benchmark -> results db -> report."""

from __future__ import annotations

import json

from repro.core.benchmark import BenchmarkCore
from repro.core.cost import ClusterSpec
from repro.core.report import ReportGenerator
from repro.core.results_db import ResultsDatabase
from repro.core.workload import Algorithm, BenchmarkRunSpec
from repro.datasets.catalog import load_dataset
from repro.platforms.registry import create_platform_fleet
from repro.robustness.faults import FaultPlan

#: A fault plan whose repetitions really differ: the straggler slows
#: only the first two executions (the warmup and the first measured
#: repetition), after which the transient plan disarms.
SPREAD_PLAN = "straggler:workers=0,factor=4;transient:attempts=2"


def _run_suite(repetitions=3, warmup=1, fault_plan=None):
    platforms = create_platform_fleet(
        ClusterSpec.paper_distributed(), names=["giraph"]
    )
    graphs = {"graph500-6": load_dataset("graph500-6")}
    core = BenchmarkCore(
        platforms,
        graphs,
        fault_plan=FaultPlan.parse(fault_plan) if fault_plan else None,
    )
    spec = BenchmarkRunSpec(
        algorithms=[Algorithm.BFS],
        repetitions=repetitions,
        warmup_runs=warmup,
    )
    return core.run(spec)


class TestBenchmarkRepetitions:
    def test_repetition_runtimes_collected(self):
        suite = _run_suite(repetitions=3)
        (result,) = suite.results
        assert result.succeeded
        assert len(result.repetition_runtimes) == 3
        assert result.warmup_runs == 1
        stats = result.runtime_stats
        assert stats is not None
        assert stats.n == 3
        assert result.runtime_seconds == stats.mean

    def test_warmup_does_not_change_measurement(self):
        # The simulation is deterministic, so warmup runs must leave
        # the measured mean bit-identical: warmup only discards.
        cold = _run_suite(repetitions=2, warmup=0)
        warm = _run_suite(repetitions=2, warmup=3)
        assert (
            cold.results[0].runtime_seconds == warm.results[0].runtime_seconds
        )


class TestResultsDbColumns:
    def test_stats_columns_round_trip(self, tmp_path):
        suite = _run_suite(repetitions=3)
        db = ResultsDatabase(tmp_path / "results.jsonl")
        db.submit(suite)
        (row,) = db.query()
        assert row.num_repetitions == 3
        assert row.runtime_mean == suite.results[0].runtime_seconds
        assert row.runtime_std is not None
        stats = row.runtime_stats()
        assert stats is not None and stats.n == 3

    def test_old_rows_without_columns_still_parse(self, tmp_path):
        legacy = {
            "submitted_at": 1.0,
            "platform": "giraph",
            "graph": "tiny",
            "algorithm": "BFS",
            "status": "success",
            "runtime_seconds": 10.0,
            "kteps": 1.0,
            "failure_reason": None,
            "cluster": None,
        }
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps(legacy) + "\n")
        db = ResultsDatabase(path)
        (row,) = db.query()
        assert row.num_repetitions is None
        assert row.runtime_stats() is None


class TestReportRendering:
    def test_text_cell_shows_spread(self):
        suite = _run_suite(repetitions=3, fault_plan=SPREAD_PLAN)
        assert suite.results[0].runtime_stats.std > 0.0
        text = ReportGenerator().render(suite)
        assert "±" in text

    def test_single_run_cell_is_bare_mean(self):
        suite = _run_suite(repetitions=1, warmup=0)
        assert "±" not in ReportGenerator().render(suite)

    def test_fault_free_repetitions_are_bare_mean(self):
        # Derived repetitions are identical: exact determinism prints
        # no spread and carries no CI95 tooltip.
        suite = _run_suite(repetitions=3)
        stats = suite.results[0].runtime_stats
        assert stats.n == 3 and stats.std == 0.0
        assert "±" not in ReportGenerator().render(suite)
        assert "CI95=" not in ReportGenerator().render_html(suite)

    def test_html_cell_carries_ci_tooltip(self):
        suite = _run_suite(repetitions=3, fault_plan=SPREAD_PLAN)
        html = ReportGenerator().render_html(suite)
        assert "CI95=" in html
        assert "n=3" in html
