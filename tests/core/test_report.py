"""Unit tests for the Report Generator."""

import pytest

from repro.core.benchmark import BenchmarkCore
from repro.core.report import ReportGenerator
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm
from repro.graph.generators import rmat_graph
from repro.hardware.models import PART_LEGEND, PART_LETTERS
from repro.platforms.graphdb.driver import Neo4jPlatform
from repro.platforms.pregel.driver import GiraphPlatform


@pytest.fixture(scope="module")
def suite(request):
    from repro.core.cost import ClusterSpec

    graphs = {"tiny": rmat_graph(6, edge_factor=4, seed=2)}
    core = BenchmarkCore(
        [GiraphPlatform(ClusterSpec.paper_distributed()), Neo4jPlatform()],
        graphs,
        validator=OutputValidator(),
    )
    return core.run()


def test_runtime_matrix_structure(suite):
    matrix = ReportGenerator().runtime_matrix(suite)
    assert "giraph" in matrix
    assert "neo4j" in matrix
    for algorithm in Algorithm:
        assert algorithm.value in matrix


def test_kteps_matrix(suite):
    table = ReportGenerator().kteps_matrix(suite, Algorithm.CONN)
    assert "kTEPS for CONN" in table
    assert "tiny" in table


def test_failure_section_when_clean(suite):
    assert ReportGenerator().failure_section(suite) == "No failures."


def test_detail_section_lists_all_successes(suite):
    details = ReportGenerator().detail_section(suite)
    assert details.count("giraph") == len(Algorithm)
    assert "max-skew" in details


def test_full_render_includes_configuration(suite):
    generator = ReportGenerator(configuration={"cluster": "test-rig"})
    text = generator.render(suite)
    assert "cluster = test-rig" in text
    assert "missing values indicate failures" in text


def test_write_to_file(suite, tmp_path):
    path = ReportGenerator().write(suite, tmp_path / "out" / "report.txt")
    assert path.exists()
    assert "Graphalytics benchmark report" in path.read_text()


def test_failure_cells_labeled_by_cause():
    from repro.core.benchmark import BenchmarkResult, BenchmarkSuiteResult

    def failed(platform, reason, status="failed"):
        return BenchmarkResult(
            platform=platform,
            graph_name="g",
            algorithm=Algorithm.BFS,
            status=status,
            failure_reason=reason,
        )

    suite = BenchmarkSuiteResult(
        results=[
            failed("giraph", "out-of-memory"),
            failed("graphx", "ETL: out-of-memory"),
            failed("mapreduce", "time-limit"),
            failed("neo4j", "worker-crash: worker 2 crashed in round 5"),
            failed("medusa", "message-loss: channel 0->1 dropped"),
            failed("virtuoso", "timeout"),
            failed("graphlab", "ranks differ", status="invalid"),
            failed("stratosphere", "error: KeyError: 'x'"),
        ]
    )
    matrix = ReportGenerator().runtime_matrix(suite)
    for label in ("OOM", "T/O", "CRASH", "LOST", "INV", "FAIL"):
        assert label in matrix
    # The dash is reserved for combinations that never ran.
    assert "—" not in matrix
    failures = ReportGenerator().failure_section(suite)
    assert "out-of-memory" in failures


def test_absent_combo_rendered_as_dash():
    from repro.core.benchmark import BenchmarkResult, BenchmarkSuiteResult

    suite = BenchmarkSuiteResult(
        results=[
            BenchmarkResult(
                platform="giraph",
                graph_name="g",
                algorithm=Algorithm.BFS,
                status="success",
                runtime_seconds=1.0,
            ),
            BenchmarkResult(
                platform="neo4j",
                graph_name="h",
                algorithm=Algorithm.BFS,
                status="success",
                runtime_seconds=2.0,
            ),
        ]
    )
    # giraph never ran graph "h" and neo4j never ran "g": dashes.
    matrix = ReportGenerator().runtime_matrix(suite)
    assert "—" in matrix


def test_runtime_cells_show_dominant_chokepoint(suite):
    import re

    matrix = ReportGenerator().runtime_matrix(suite)
    # Every successful cell carries its one-letter dominant label.
    cells = re.findall(r"\d+\.\d+ ([A-Z])", matrix)
    assert cells
    assert set(cells) <= set(PART_LETTERS.values())


def test_render_includes_chokepoint_legend(suite):
    text = ReportGenerator().render(suite)
    assert PART_LEGEND in text
    assert "dominant=" in text


def test_html_cells_annotate_dominant_chokepoint(suite):
    html = ReportGenerator().render_html(suite)
    assert 'title="dominant choke point:' in html
    assert "<sup>" in html


def test_profileless_results_render_without_letter():
    from repro.core.benchmark import BenchmarkResult, BenchmarkSuiteResult

    suite = BenchmarkSuiteResult(
        results=[
            BenchmarkResult(
                platform="giraph",
                graph_name="g",
                algorithm=Algorithm.BFS,
                status="success",
                runtime_seconds=1.5,
            )
        ]
    )
    matrix = ReportGenerator().runtime_matrix(suite)
    assert "1.5" in matrix
    html = ReportGenerator().render_html(suite)
    assert "<sup>" not in html
