"""The Report Generator (paper Figure 2).

"The Report Generator produces the main outcome of Graphalytics, a
detailed report on the performance of the SUT during the benchmark,
which includes all relevant configuration information."

Reports are plain text (rendered to the console or a file): a runtime
matrix in the layout of the paper's Figure 4 (algorithms × graphs ×
platforms, failures shown as missing), a kTEPS table (Figure 5), and
per-run detail sections with choke-point indicators.

Each measured cell carries the letter of the largest part of its
simulated seconds (:data:`~repro.hardware.models.PART_LEGEND`), and
each detail line lists every part's share.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.benchmark import BenchmarkSuiteResult
from repro.core.chokepoints import ChokePointReport, analyze_profile
from repro.core.workload import Algorithm
from repro.hardware.models import PART_LEGEND

__all__ = ["ReportGenerator"]

_MISSING = "—"

#: Failure-reason prefixes mapped to short matrix-cell labels; checked
#: in order, first match wins. Reasons with an ``ETL: `` prefix match
#: the same labels (an ETL out-of-memory is still an OOM cell).
_FAILURE_LABELS = (
    ("out-of-memory", "OOM"),
    ("timeout", "T/O"),
    ("time-limit", "T/O"),
    ("worker-crash", "CRASH"),
    ("message-loss", "LOST"),
)


def _failure_label(result) -> str:
    """Short matrix-cell label for a failed/invalid result.

    The paper's Figure 4 leaves failed cells blank; the labels keep
    the matrix compact while still telling OOM apart from timeouts
    ("—" is reserved for combinations that were never run).
    """
    if result.status == "invalid":
        return "INV"
    reason = result.failure_reason or ""
    if reason.startswith("ETL: "):
        reason = reason[len("ETL: "):]
    for prefix, label in _FAILURE_LABELS:
        if reason.startswith(prefix):
            return label
    return "FAIL"


def _cell_chokepoints(result) -> ChokePointReport | None:
    """The choke-point indicators behind one matrix cell, if any.

    Results produced by the Benchmark Core carry them directly;
    hand-built results with a run profile get them computed on the
    fly, and profile-less results render without a choke-point label.
    """
    if result.chokepoints is not None:
        return result.chokepoints
    if result.run is not None:
        return analyze_profile(result.run.profile)
    return None


def _format_runtime(seconds: float | None) -> str:
    if seconds is None:
        return _MISSING
    if seconds >= 100:
        return f"{seconds:.0f}"
    return f"{seconds:.1f}"


def _cell_stats(result):
    """Repetition statistics behind one matrix cell, if recorded.

    Only multi-repetition cells carry a meaningful spread; single
    runs render as a bare mean (and the audit's ``missing-variance``
    rule exists precisely to flag that situation in archived rows).
    """
    stats = getattr(result, "runtime_stats", None)
    if stats is not None and stats.has_spread:
        return stats
    return None


def _format_runtime_cell(result) -> str:
    """Matrix cell text: mean runtime plus ``±std`` when repeated."""
    cell = _format_runtime(result.runtime_seconds)
    stats = _cell_stats(result)
    if stats is not None:
        cell = f"{cell}±{stats.std:.2g}"
    return cell


class ReportGenerator:
    """Renders benchmark suite results into a human-readable report."""

    def __init__(self, configuration: dict | None = None):
        #: Configuration information echoed into the report header.
        self.configuration = configuration or {}

    # -- tables ----------------------------------------------------------

    def runtime_matrix(self, suite: BenchmarkSuiteResult) -> str:
        """Figure 4-style matrix: rows algorithm×graph, columns platforms."""
        platforms = sorted({r.platform for r in suite.results})
        graphs = sorted({r.graph_name for r in suite.results})
        lines = []
        header = f"{'algorithm':<8} {'graph':<16}" + "".join(
            f"{p:>12}" for p in platforms
        )
        lines.append(header)
        lines.append("-" * len(header))
        for algorithm in Algorithm:
            for graph in graphs:
                cells = []
                any_cell = False
                for platform in platforms:
                    result = suite.lookup(platform, graph, algorithm)
                    if result is None:
                        cells.append(f"{_MISSING:>12}")
                        continue
                    any_cell = True
                    if result.succeeded:
                        cell = _format_runtime_cell(result)
                        chokepoints = _cell_chokepoints(result)
                        if chokepoints is not None:
                            # Figure 4 plus the Section 2.1 lens: every
                            # cell names its largest part of time.
                            letter = chokepoints.breakdown.dominant_letter()
                            cell = f"{cell} {letter}"
                        cells.append(f"{cell:>12}")
                    else:
                        cells.append(f"{_failure_label(result):>12}")
                if any_cell:
                    lines.append(
                        f"{algorithm.value:<8} {graph:<16}" + "".join(cells)
                    )
        return "\n".join(lines)

    def kteps_matrix(self, suite: BenchmarkSuiteResult, algorithm: Algorithm) -> str:
        """Figure 5-style kTEPS table for one algorithm."""
        platforms = sorted({r.platform for r in suite.results})
        graphs = sorted({r.graph_name for r in suite.results})
        lines = []
        header = f"{'graph':<16}" + "".join(f"{p:>12}" for p in platforms)
        lines.append(f"kTEPS for {algorithm.value}")
        lines.append(header)
        lines.append("-" * len(header))
        for graph in graphs:
            cells = []
            for platform in platforms:
                result = suite.lookup(platform, graph, algorithm)
                if result is None or not result.succeeded or result.kteps is None:
                    cells.append(f"{_MISSING:>12}")
                else:
                    cells.append(f"{result.kteps:>12.1f}")
            lines.append(f"{graph:<16}" + "".join(cells))
        return "\n".join(lines)

    def failure_section(self, suite: BenchmarkSuiteResult) -> str:
        """List of failures with reasons (the 'missing values')."""
        failures = suite.failures()
        if not failures:
            return "No failures."
        lines = ["Failures:"]
        for result in failures:
            lines.append(
                f"  {result.platform:<12} {result.algorithm.value:<6} "
                f"{result.graph_name:<16} {result.failure_reason}"
            )
        return "\n".join(lines)

    def detail_section(self, suite: BenchmarkSuiteResult) -> str:
        """Per-run choke-point indicators for successful runs."""
        lines = ["Run details (choke-point indicators):"]
        for result in suite.successes():
            profile = result.run.profile
            chokepoints = _cell_chokepoints(result)
            overhead = ""
            if chokepoints.network_overhead_share:
                overhead = (
                    f" net-overhead={chokepoints.network_overhead_share:.0%}"
                )
            lines.append(
                f"  {result.platform:<12} {result.algorithm.value:<6} "
                f"{result.graph_name:<16} rounds={profile.num_rounds:<4} "
                f"net={profile.total_remote_bytes / 2**20:8.2f} MiB "
                f"peak-mem={profile.peak_memory / 2**20:8.2f} MiB "
                f"max-skew={chokepoints.max_skew:5.2f} "
                f"dominant={chokepoints.breakdown.dominant()}{overhead} "
                f"time {chokepoints.breakdown.describe()}"
            )
        return "\n".join(lines)

    def activity_timeline(self, result, width: int = 40) -> str:
        """ASCII sparkline of active vertices per round for one run.

        Visualizes the convergence-tail choke point ("iterative
        algorithms often have a varying workload in the diverse
        iterations"): a long flat tail after the peak is exactly the
        regime where barriers dominate.
        """
        if result.run is None:
            return "(no run profile)"
        activity = [r.active_vertices for r in result.run.profile.rounds]
        if not activity or max(activity) == 0:
            return "(no activity recorded)"
        levels = " ▁▂▃▄▅▆▇█"
        peak = max(activity)
        bars = "".join(
            levels[min(int(value / peak * (len(levels) - 1)), len(levels) - 1)]
            if peak
            else levels[0]
            for value in activity[:width]
        )
        suffix = "…" if len(activity) > width else ""
        return (
            f"{bars}{suffix} rounds={len(activity)} peak-active={peak}"
        )

    def quality_section(self, quality) -> str:
        """Section 3.5 code-quality summary for one analysis report.

        ``quality`` is a :class:`repro.analysis.QualityReport`; the
        paper ships benchmark results together with code-quality
        reports of the reference implementations, so the benchmark
        report embeds the analyzer's aggregate view.
        """
        lines = ["Code quality (Section 3.5):", f"  {quality.summary()}"]
        severities = quality.findings_by_severity()
        lines.append(
            "  findings: "
            + " ".join(f"{sev}={count}" for sev, count in severities.items())
            + f" suppressed={quality.total_suppressed}"
        )
        for file_report, finding in quality.iter_findings():
            lines.append(
                f"  {file_report.path}:{finding.line}: {finding.severity} "
                f"[{finding.rule}] {finding.message}"
            )
        return "\n".join(lines)

    # -- full report --------------------------------------------------------

    def render(self, suite: BenchmarkSuiteResult, quality=None) -> str:
        """The complete benchmark report as text.

        ``quality`` optionally embeds a code-quality analysis
        (:class:`repro.analysis.QualityReport`) as its own section.
        """
        sections = ["Graphalytics benchmark report", "=" * 31]
        if self.configuration:
            sections.append("Configuration:")
            for key in sorted(self.configuration):
                sections.append(f"  {key} = {self.configuration[key]}")
            sections.append("")
        sections.append("Runtime [s] per algorithm, graph, and platform")
        sections.append(
            "(missing values indicate failures; failed cells are "
            "labeled OOM / T/O / CRASH / LOST / INV / FAIL by cause)"
        )
        sections.append(
            f"(cell letters mark the largest part of simulated time: "
            f"{PART_LEGEND})"
        )
        sections.append(self.runtime_matrix(suite))
        sections.append("")
        sections.append(self.kteps_matrix(suite, Algorithm.CONN))
        sections.append("")
        sections.append(self.failure_section(suite))
        sections.append("")
        sections.append(self.detail_section(suite))
        if quality is not None:
            sections.append("")
            sections.append(self.quality_section(quality))
        return "\n".join(sections)

    def write(
        self, suite: BenchmarkSuiteResult, path: str | Path, quality=None
    ) -> Path:
        """Render and save the report; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render(suite, quality=quality), encoding="utf-8")
        return path

    # -- HTML ----------------------------------------------------------------

    def render_html(self, suite: BenchmarkSuiteResult) -> str:
        """The report as a self-contained HTML page.

        The paper's harness produces "a detailed report on the
        performance of the SUT"; the HTML rendering is what lands in
        the local file system for browsing.
        """
        platforms = sorted({r.platform for r in suite.results})
        graphs = sorted({r.graph_name for r in suite.results})

        def runtime_rows() -> str:
            rows = []
            for algorithm in Algorithm:
                for graph in graphs:
                    cells = []
                    relevant = False
                    for platform in platforms:
                        result = suite.lookup(platform, graph, algorithm)
                        if result is None:
                            cells.append("<td></td>")
                            continue
                        relevant = True
                        if result.succeeded:
                            runtime = _format_runtime_cell(result)
                            stats = _cell_stats(result)
                            hints = []
                            if stats is not None:
                                hints.append(
                                    f"n={stats.n} CI95=[{stats.ci95_low:.2f}, "
                                    f"{stats.ci95_high:.2f}]"
                                )
                            chokepoints = _cell_chokepoints(result)
                            if chokepoints is not None:
                                hints.append(
                                    "dominant choke point: "
                                    + chokepoints.breakdown.describe()
                                )
                                title = _escape("; ".join(hints))
                                letter = chokepoints.breakdown.dominant_letter()
                                cells.append(
                                    f'<td title="{title}">{runtime} '
                                    f"<sup>{letter}</sup></td>"
                                )
                            elif hints:
                                title = _escape("; ".join(hints))
                                cells.append(
                                    f'<td title="{title}">{runtime}</td>'
                                )
                            else:
                                cells.append(f"<td>{runtime}</td>")
                        else:
                            reason = _escape(result.failure_reason or "failed")
                            cells.append(
                                f'<td class="failure" title="{reason}">'
                                f"{_failure_label(result)}</td>"
                            )
                    if relevant:
                        rows.append(
                            f"<tr><td>{algorithm.value}</td>"
                            f"<td>{_escape(graph)}</td>{''.join(cells)}</tr>"
                        )
            return "\n".join(rows)

        config_rows = "\n".join(
            f"<tr><td>{_escape(str(key))}</td><td>{_escape(str(value))}</td></tr>"
            for key, value in sorted(self.configuration.items())
        )
        header_cells = "".join(f"<th>{_escape(p)}</th>" for p in platforms)
        failures = "\n".join(
            f"<li>{_escape(r.platform)} / {r.algorithm.value} / "
            f"{_escape(r.graph_name)}: {_escape(r.failure_reason or '')}</li>"
            for r in suite.failures()
        ) or "<li>none</li>"

        return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Graphalytics benchmark report</title>
<style>
body {{ font-family: sans-serif; margin: 2em; }}
table {{ border-collapse: collapse; margin-bottom: 1.5em; }}
th, td {{ border: 1px solid #999; padding: 0.3em 0.8em; text-align: right; }}
th {{ background: #eee; }}
td.failure {{ background: #fdd; text-align: center; }}
</style>
</head>
<body>
<h1>Graphalytics benchmark report</h1>
<h2>Configuration</h2>
<table><tbody>{config_rows}</tbody></table>
<h2>Runtime [s] per algorithm, graph, and platform</h2>
<p>Failed cells (highlighted) are labeled by cause; hover for the
full failure reason. Superscript letters mark the largest part of
each cell's simulated time ({PART_LEGEND}).</p>
<table>
<thead><tr><th>algorithm</th><th>graph</th>{header_cells}</tr></thead>
<tbody>
{runtime_rows()}
</tbody>
</table>
<h2>Failures</h2>
<ul>{failures}</ul>
</body>
</html>
"""

    def write_html(self, suite: BenchmarkSuiteResult, path: str | Path) -> Path:
        """Render and save the HTML report; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render_html(suite), encoding="utf-8")
        return path


def _escape(text: str) -> str:
    """Minimal HTML escaping for report cells."""
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
