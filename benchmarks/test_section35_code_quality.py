"""Section 3.5: code quality of the reference implementations.

The paper: "in Graphalytics, the code for the reference
implementations is accompanied by code quality reports, such as code
complexity, bugs discovered through static analysis, etc."

Regenerates that report for this repository's own reference
implementations, and exercises the SonarQube-style regression signal
on a synthetic "bad commit".
"""

import pytest

from benchmarks.conftest import print_table
from repro.analysis import QualityReport, analyze_source, analyze_tree, detect_regressions

SOURCE_ROOT = "src/repro"


@pytest.mark.benchmark(group="section3.5")
def test_section35_code_quality(benchmark):
    report = benchmark.pedantic(
        analyze_tree, args=(SOURCE_ROOT,), rounds=1, iterations=1
    )

    worst = sorted(report.files, key=lambda f: f.max_complexity, reverse=True)[:5]
    lines = [report.summary(), "", "most complex files:"]
    lines.extend(
        f"  {file.path}: max complexity {file.max_complexity}" for file in worst
    )
    print_table("Section 3.5: code quality report", lines)

    # The reference implementations ship clean: no potential bugs,
    # full public documentation, bounded complexity.
    assert report.total_findings == 0
    assert report.documented_share == 1.0
    assert report.mean_complexity < 6.0
    assert report.total_lines > 5000

    # Regression detection: a commit introducing a bug pattern is
    # flagged, as SonarQube does on the real project.
    bad_commit = QualityReport(
        files=report.files
        + [analyze_source("def rushed(x=[]):\n    return x\n", "rushed.py")]
    )
    signals = detect_regressions(report, bad_commit)
    assert any("potential bugs" in signal for signal in signals)
