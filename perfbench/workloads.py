"""The benchmark's four workloads and one measured pass of each.

A pass sets up (graph generation and load, platform construction),
then runs its workload through the same public calls that
``graphalytics run`` and ``graphalytics quality --check`` make, writes
every artifact, and checks the outputs. Host time is measured; the
simulated seconds are outputs, pinned per cell by a digest of
``profile_fingerprint``. README.md in this directory says why each
workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro import analysis
from repro.core.benchmark import SUCCESS, BenchmarkCore
from repro.core.cost import ClusterSpec
from repro.core.report import ReportGenerator
from repro.core.results_db import ResultsDatabase
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm, BenchmarkRunSpec
from repro.datasets import catalog
from repro.observability import profile_fingerprint
from repro.platforms.registry import create_platform_fleet

from perfbench.spans import (
    CountingSink,
    SpanRecorder,
    accounting_gap,
    instrument,
    layer_metrics,
)
from perfbench.speed import SpeedProbe

__all__ = [
    "DEFAULT_SEED",
    "GOLDEN_PATH",
    "QualityWorkload",
    "SuiteWorkload",
    "WORKLOADS",
    "cell_failures",
    "digest",
    "load_golden",
    "run_pass",
    "setup",
]

#: The seed the golden fingerprints were recorded at.
DEFAULT_SEED = 1
GOLDEN_PATH = Path(__file__).with_name("golden.json")

_CAP_BFS_CONN = (
    "{platform} stops {algorithm} at a fixed 100-iteration cap "
    "({where}); road-64 is deeper than 100 BFS levels, so the "
    "truncated output fails validation"
)


@dataclass(frozen=True)
class SuiteWorkload:
    """A (platform x graph x algorithm) matrix run by the Benchmark Core.

    An op is one cell. ``known_failures`` maps (platform, algorithm)
    to the documented defect that makes that cell fail validation.
    """

    name: str
    platforms: tuple[str, ...]
    graphs: tuple[str, ...]
    algorithms: tuple[str, ...]
    repetitions: int = 1
    warmup: int = 0
    results_db: bool = False
    traces: bool = False
    known_failures: dict[tuple[str, str], str] = field(default_factory=dict)


@dataclass(frozen=True)
class QualityWorkload:
    """``analyze_tree`` then ``quality_gate``, as CI runs them.

    An op is one analyzed file.
    """

    name: str
    root: str = "src"
    baseline: str = ".quality-baseline.json"


WORKLOADS: dict[str, SuiteWorkload | QualityWorkload] = {
    workload.name: workload
    for workload in (
        SuiteWorkload(
            name="paper-suite",
            platforms=("giraph", "graphx", "mapreduce"),
            graphs=("graph500-9", "amazon", "road-16"),
            algorithms=("BFS", "CONN", "STATS"),
            repetitions=5,
            warmup=1,
            results_db=True,
        ),
        SuiteWorkload(
            name="traversal-dense",
            platforms=("giraph", "graphlab", "graphx", "neo4j", "virtuoso"),
            graphs=("graph500-12",),
            algorithms=("BFS", "CONN", "PR"),
        ),
        SuiteWorkload(
            name="road-sparse",
            platforms=("giraph", "graphlab", "graphx", "mapreduce"),
            graphs=("road-64",),
            algorithms=("BFS", "CONN", "SSSP"),
            traces=True,
            known_failures={
                ("graphx", "BFS"): _CAP_BFS_CONN.format(
                    platform="graphx", algorithm="BFS",
                    where="rddgraph/bulk.py:460, rddgraph/algorithms.py:32",
                ),
                ("graphx", "CONN"): _CAP_BFS_CONN.format(
                    platform="graphx", algorithm="CONN",
                    where="rddgraph/bulk.py:470, rddgraph/algorithms.py:56",
                ),
                ("mapreduce", "BFS"): _CAP_BFS_CONN.format(
                    platform="mapreduce", algorithm="BFS",
                    where="mapreduce/driver.py:49",
                ),
                ("mapreduce", "CONN"): _CAP_BFS_CONN.format(
                    platform="mapreduce", algorithm="CONN",
                    where="mapreduce/driver.py:49",
                ),
            },
        ),
        QualityWorkload(name="quality-gate"),
    )
}


def digest(profile) -> str:
    """Short stable digest of a profile's ``profile_fingerprint``.

    ``repr`` of a float round-trips exactly, so equal digests mean
    bit-identical fingerprints.
    """
    text = repr(profile_fingerprint(profile))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_golden() -> dict:
    """The committed golden digests (empty when none are committed)."""
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def cell_failures(
    cells: list[dict],
    golden: dict[str, str | None] | None,
    known_failures: dict[tuple[str, str], str],
) -> list[dict]:
    """One failure record per failed cell.

    A cell fails when its status is not ``success`` or, when
    ``golden`` is given, when its digest differs from the golden one.
    A cell failing both ways is still one failed op. A failure is
    ``expected`` only when it is a validation failure that
    ``known_failures`` documents and the fingerprint (if checked)
    matches.
    """
    failures = []
    for cell in cells:
        reasons = []
        if cell["status"] != SUCCESS:
            reasons.append(f"{cell['status']}: {cell['reason']}")
        fingerprint_changed = golden is not None and (
            golden.get(cell["op"]) != cell["digest"]
        )
        if fingerprint_changed:
            reasons.append(
                f"profile fingerprint {cell['digest']} differs from golden "
                f"{golden.get(cell['op'])}"
            )
        if not reasons:
            continue
        known = known_failures.get((cell["platform"], cell["algorithm"]))
        expected = (
            known is not None
            and cell["status"] == "invalid"
            and not fingerprint_changed
        )
        if expected:
            reasons.append(f"known defect: {known}")
        failures.append(
            {"op": cell["op"], "reason": "; ".join(reasons), "expected": expected}
        )
    return failures


def setup(workload, seed: int) -> dict:
    """Generate and load the graphs and construct the platforms."""
    if isinstance(workload, QualityWorkload):
        root = Path(workload.root)
        if not (root / "repro").is_dir():
            raise FileNotFoundError(f"no source tree to analyze under {root}/")
        return {"baseline": analysis.load_baseline(workload.baseline)}
    graphs = {
        name: catalog.load_dataset(name, seed=seed) for name in workload.graphs
    }
    platforms = create_platform_fleet(
        ClusterSpec.paper_distributed(), names=list(workload.platforms)
    )
    return {"graphs": graphs, "platforms": platforms}


def _run_suite(
    workload: SuiteWorkload, state: dict, out_dir: Path, recorder, golden
) -> dict:
    """The timed region of a suite pass, then its output checks."""
    platforms, graphs = state["platforms"], state["graphs"]
    spec = BenchmarkRunSpec(
        algorithms=[Algorithm.from_name(name) for name in workload.algorithms],
        validate_outputs=True,
        repetitions=workload.repetitions,
        warmup_runs=workload.warmup,
    )
    trace_dir = out_dir / "traces" if workload.traces else None
    core = BenchmarkCore(
        platforms, graphs, validator=OutputValidator(), trace_dir=trace_dir
    )
    configuration = {
        "platforms": ",".join(sorted(p.name for p in platforms)),
        "graphs": ",".join(sorted(graphs)),
        "cluster": ClusterSpec.paper_distributed().name,
    }
    if workload.repetitions > 1:
        configuration["repetitions"] = str(workload.repetitions)
    if workload.warmup > 0:
        configuration["warmup"] = str(workload.warmup)
    if trace_dir is not None:
        configuration["trace"] = str(trace_dir)
    report_path = out_dir / "report.txt"
    db_path = out_dir / "results.jsonl"
    rows = 0
    start = time.perf_counter()
    with recorder.span("harness") if recorder else nullcontext():
        suite = core.run(spec, parallel=1)
        ReportGenerator(configuration=configuration).write(suite, report_path)
        if workload.results_db:
            rows = ResultsDatabase(db_path).submit(suite)
    wall = time.perf_counter() - start

    cells = [
        {
            "op": f"{r.platform}/{r.graph_name}/{r.algorithm.value}",
            "platform": r.platform,
            "algorithm": r.algorithm.value,
            "status": r.status,
            "reason": r.failure_reason,
            "digest": digest(r.run.profile) if r.run is not None else None,
        }
        for r in suite.results
    ]
    expected_cells = (
        len(workload.platforms) * len(workload.graphs) * len(workload.algorithms)
    )
    problems = []
    if len(cells) != expected_cells:
        problems.append(f"{len(cells)} cells ran, expected {expected_cells}")
    if not report_path.is_file() or report_path.stat().st_size == 0:
        problems.append("text report not written")
    if workload.results_db:
        lines = db_path.read_text(encoding="utf-8").splitlines()
        if rows != len(cells) or len(lines) != len(cells):
            problems.append(
                f"results-db holds {len(lines)} rows ({rows} reported) "
                f"for {len(cells)} cells"
            )
    trace_bytes = 0
    if trace_dir is not None:
        missing = [
            r for r in suite.results
            if r.trace_path is None or not Path(r.trace_path).is_file()
        ]
        if missing:
            problems.append(f"{len(missing)} cell trace(s) not written")
        trace_bytes = sum(path.stat().st_size for path in trace_dir.glob("*.jsonl"))
    return {
        "start": start,
        "wall_s": wall,
        "ops": len(cells),
        "fingerprints": {cell["op"]: cell["digest"] for cell in cells},
        "failures": cell_failures(cells, golden, workload.known_failures),
        "problems": problems,
        "layer_inputs": {"cells": len(cells), "trace_bytes": trace_bytes},
    }


def _quality_failures(report, baseline: dict) -> list[dict]:
    """Files with a parse error or a finding the baseline does not allow.

    The baseline allows, per rule, as many findings as it recorded; a
    rule over its allowance fails every file carrying one of its
    findings.
    """
    allowed = baseline.get("findings_by_rule", {})
    over = {
        rule
        for rule, count in report.findings_by_rule().items()
        if count > allowed.get(rule, 0)
    }
    failures = []
    for file_report in report.files:
        bad = [
            finding for finding in file_report.findings
            if finding.rule == "parse-error" or finding.rule in over
        ]
        if bad:
            first = bad[0]
            failures.append(
                {
                    "op": file_report.path,
                    "reason": f"{len(bad)} finding(s) over the baseline, first "
                    f"[{first.rule}] line {first.line}: {first.message}",
                    "expected": False,
                }
            )
    return failures


def _run_quality(
    workload: QualityWorkload, state: dict, out_dir: Path, recorder
) -> dict:
    """The timed region of the quality-gate pass, then its checks."""
    rule_timings = {} if recorder else None
    verdict_path = out_dir / "quality-gate.json"
    start = time.perf_counter()
    with recorder.span("harness") if recorder else nullcontext():
        report = analysis.analyze_tree(workload.root, rule_timings=rule_timings)
        text = analysis.render_text(report)
        gate = analysis.quality_gate(report, state["baseline"])
        verdict_path.write_text(
            json.dumps(
                {
                    "passed": gate.passed,
                    "regressions": [str(r) for r in gate.regressions],
                    "report": text,
                }
            ),
            encoding="utf-8",
        )
    wall = time.perf_counter() - start
    failures = _quality_failures(report, state["baseline"])
    problems = []
    if not report.files:
        problems.append(f"no Python files analyzed under {workload.root}/")
    if not gate.passed and not failures:
        problems.append(
            "quality gate failed: "
            + "; ".join(str(r) for r in gate.regressions)
        )
    return {
        "start": start,
        "wall_s": wall,
        "ops": len(report.files),
        "fingerprints": {},
        "failures": failures,
        "problems": problems,
        "layer_inputs": {
            "rule_timings": rule_timings or {},
            "analysis_files": len(report.files),
            "analysis_lines": report.total_lines,
        },
    }


def run_pass(
    name: str, seed: int, out_dir: Path, traced: bool, started: float,
    probe: SpeedProbe | None = None,
) -> dict:
    """Set up and run one workload; returns the pass record.

    ``started`` is the ``perf_counter`` reading taken before the
    program's modules were imported, so ``setup_s`` covers imports.
    With a running ``probe`` the record also holds ``setup_ref_s`` and
    ``wall_ref_s``, the two times on the reference core, and
    ``loop_us``, the probe's median loop time while the pass ran.
    """
    workload = WORKLOADS[name]
    recorder = SpanRecorder() if traced else None
    sink = CountingSink()
    with instrument(recorder) if recorder else nullcontext():
        state = setup(workload, seed)
        setup_s = time.perf_counter() - started
        if isinstance(workload, SuiteWorkload):
            if recorder:
                for platform in state["platforms"]:
                    platform.sinks = platform.sinks + (sink,)
            golden = None
            if seed == DEFAULT_SEED:
                golden = load_golden().get("digests", {}).get(name, {})
            record = _run_suite(workload, state, out_dir, recorder, golden)
        else:
            record = _run_quality(workload, state, out_dir, recorder)
    layer_inputs = record.pop("layer_inputs")
    start = record.pop("start")
    end = start + record["wall_s"]
    record["setup_s"] = setup_s
    if probe is not None:
        record["setup_ref_s"] = probe.scaled(setup_s, started, started + setup_s)
        record["wall_ref_s"] = probe.scaled(record["wall_s"], start, end)
        record["loop_us"] = probe.loop_seconds(start, end) * 1e6
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    )
    if recorder:
        gap = accounting_gap(recorder, record["wall_s"])
        if abs(gap) > max(1e-3, 1e-4 * record["wall_s"]):
            record["problems"].append(
                f"layer self times miss the traced wall by {gap:.6f} s"
            )
        record["layers"] = layer_metrics(recorder, sink, **layer_inputs)
    return record
