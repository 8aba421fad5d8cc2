"""Command-line interface: the benchmark's entry point.

The paper's user workflow (Section 2.3) is: add graphs, configure the
platform, choose the workload, run the benchmark ("Graphalytics
includes a Unix shell script that triggers the execution of the
benchmark. After the execution completes, the benchmark report is
available in the local file system."). The installed ``graphalytics``
command implements that workflow:

* ``graphalytics run`` — execute a benchmark over catalog datasets
  and write the report;
* ``graphalytics datagen`` — generate a synthetic graph to files;
* ``graphalytics characterize`` — print a Table 1 row for a dataset;
* ``graphalytics quality`` — the Section 3.5 code-quality report and
  baseline quality gate (``--check`` / ``--update-baseline``);
* ``graphalytics audit`` — the benchmark self-audit: SoK
  fault-taxonomy rules over experiment artifacts (benchmark/graph
  configs, results databases, traces), sharing the quality gate's
  reporters, baseline, and ``--check`` semantics;
* ``graphalytics trace`` — summarize a structured JSONL run trace
  (written by ``run --trace DIR``): attempts, rounds, faults, and
  where the simulated time went, split into compute, locality, skew,
  memory, network, disk, barrier and startup (the dominant choke
  point is the largest part);
* ``graphalytics analyze`` — compare two runs (traces, results
  databases, or submission documents) and flag regressions in time,
  network bytes, rounds, and dominant choke point;
* ``graphalytics whatif`` — execute one suite and re-cost it across
  hardware profiles (``paper-1gbe`` vs ``10gbe`` vs ``rdma`` ...),
  showing how simulated seconds and the dominant choke point shift
  with the machine;
* ``graphalytics calibrate`` — fit a hardware profile's free
  parameters against reference runtimes by re-costing recorded runs;
* ``graphalytics selfcheck`` — one command chaining the tier-1 test
  suite, the quality gate, the quick perf harness, the trace-replay
  check, and the calibration-fitter smoke.

``run`` also exposes the deterministic failure envelope: ``--mem-limit``
caps every worker's simulated memory (reproducing the paper's
out-of-memory failure cells), ``--timeout`` sets a typed per-run
budget, and ``--inject`` activates seeded fault injection
(stragglers, worker crashes, message loss) with bounded ``--retries``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable

from repro.core.benchmark import BenchmarkCore
from repro.core.cost import ClusterSpec
from repro.core.report import ReportGenerator
from repro.core.results_db import ResultsDatabase
from repro.core.validation import OutputValidator
from repro.core.config import load_benchmark_config, load_hardware_settings
from repro.hardware.registry import (
    DEFAULT_PROFILE,
    available_profiles,
    default_workers,
)
from repro.core.workload import Algorithm, BenchmarkRunSpec
from repro.analysis import (
    AnalysisConfig,
    analyze_tree,
    audit_paths,
    audit_spec,
    load_baseline,
    quality_gate,
    render_json,
    render_rule_profile,
    render_text,
    save_baseline,
)
from repro.datagen.datagen import Datagen, DatagenConfig
from repro.datasets.catalog import load_dataset
from repro.graph.io import write_edge_list
from repro.graph.properties import graph_characteristics
from repro.platforms.registry import available_platforms, create_platform_fleet
from repro.robustness import FaultPlan, apply_mem_limit, parse_bytes

__all__ = ["main"]

#: Default graph selection of ``graphalytics run``.
_DEFAULT_GRAPHS = "graph500-12,patents"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphalytics",
        description="Graphalytics benchmark for graph-processing platforms",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the benchmark and write a report")
    run.add_argument(
        "--config",
        default=None,
        help="benchmark configuration file ([benchmark] section); "
        "explicit flags override its entries",
    )
    run.add_argument(
        "--platforms",
        default=None,
        help=f"comma-separated platform names (default: all: "
        f"{','.join(available_platforms())})",
    )
    run.add_argument(
        "--graphs",
        default=_DEFAULT_GRAPHS,
        help="comma-separated catalog names (e.g. graph500-12,snb-5000,patents)",
    )
    run.add_argument("--algorithms", default=None,
                     help="comma-separated subset of "
                     "STATS,BFS,CONN,CD,EVO,PR,SSSP,LCC "
                     "(SSSP requires weighted graphs)")
    run.add_argument("--hardware-profile", default=None, metavar="NAME",
                     help="hardware profile for the distributed "
                     f"platforms (registered: {','.join(available_profiles())};"
                     " default: the paper's 1 GbE cluster)")
    run.add_argument("--workers", type=int, default=None, metavar="N",
                     help="worker count for the distributed platforms "
                     "(default: the profile's reference testbed)")
    run.add_argument("--time-limit", type=float, default=None,
                     help="simulated-seconds budget per run")
    run.add_argument("--mem-limit", default=None, metavar="BYTES",
                     help="per-worker simulated memory cap, e.g. 512M or "
                     "2G; platforms whose footprint exceeds it record "
                     "deterministic FAILED(OOM) cells")
    run.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                     help="typed per-run simulated timeout budget "
                     "(records FAILED(timeout) cells)")
    run.add_argument("--inject", default=None, metavar="SPEC",
                     help="fault-injection plan, e.g. "
                     "'straggler:workers=0,factor=4;crash:worker=2,round=5;"
                     "msgloss:rate=0.01,seed=7;transient:attempts=1'")
    run.add_argument("--retries", type=int, default=0, metavar="N",
                     help="bounded retries for transient injected faults")
    run.add_argument("--retry-backoff", type=float, default=1.0,
                     metavar="SECONDS",
                     help="simulated linear backoff per retry attempt")
    run.add_argument("--parallel", type=int, default=1, metavar="N",
                     help="run (platform, graph) pairs over N worker "
                     "processes (results identical to sequential)")
    run.add_argument("--trace", default=None, metavar="DIR",
                     help="write a structured JSONL trace per (platform, "
                     "graph, algorithm) cell into this directory "
                     "(inspect with 'graphalytics trace', compare with "
                     "'graphalytics analyze')")
    run.add_argument("--graph-store", default=None, metavar="DIR",
                     help="content-addressed .npy graph store for parallel "
                     "runs: workers mmap shared pages instead of "
                     "unpickling private graph copies")
    run.add_argument("--no-validate", action="store_true",
                     help="skip output validation")
    run.add_argument("--repetitions", type=int, default=None, metavar="N",
                     help="measured repetitions per cell (runtime reported "
                     "as their mean with std/CI95 columns); a fault-free "
                     "cell executes once and derives its N identical "
                     "repetitions from that run")
    run.add_argument("--warmup", type=int, default=None, metavar="N",
                     help="discarded warmup executions before measuring "
                     "each cell; they execute only under --inject, since "
                     "a fault-free warmup would repeat the measured run")
    run.add_argument("--audit", action="store_true",
                     help="preflight the resolved run spec through the "
                     "benchmark self-audit; error-severity findings "
                     "abort the run")
    run.add_argument("--report", default="graphalytics-report.txt",
                     help="report output path")
    run.add_argument("--html", default=None,
                     help="also write an HTML report to this path")
    run.add_argument("--results-db", default=None,
                     help="optional JSONL results database to append to")
    run.add_argument("--with-quality", action="store_true",
                     help="embed the Section 3.5 code-quality section "
                     "(analysis of ./src) in the report")

    datagen = commands.add_parser("datagen", help="generate a synthetic graph")
    datagen.add_argument("--persons", type=int, default=10000)
    datagen.add_argument("--distribution", default="facebook",
                         choices=["facebook", "zeta", "geometric", "weibull"])
    datagen.add_argument("--seed", type=int, default=0)
    datagen.add_argument("--output", required=True, help="edge-list output path")

    characterize = commands.add_parser(
        "characterize", help="print dataset characteristics (Table 1 row)"
    )
    characterize.add_argument("dataset", help="catalog name, e.g. patents")

    quality = commands.add_parser(
        "quality", help="static code-quality report and gate (Section 3.5)"
    )
    quality.add_argument("--root", default="src", help="source tree to analyze")
    quality.add_argument("--json", default=None, metavar="PATH",
                         help="also write a JSON report to this path")
    quality.add_argument("--baseline", default=None, metavar="PATH",
                         help="baseline snapshot for regression checking")
    quality.add_argument("--check", action="store_true",
                         help="gate: exit non-zero on regressions versus the "
                         "baseline (or on error-severity findings when no "
                         "baseline is given)")
    quality.add_argument("--update-baseline", action="store_true",
                         help="write the current analysis as the new baseline")
    quality.add_argument("--disable", default=None, metavar="RULES",
                         help="comma-separated rule ids to disable")
    quality.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="run per-file rules across N worker "
                         "processes (project rules stay in-process)")
    quality.add_argument("--profile-rules", action="store_true",
                         help="print a per-rule wall-clock table after "
                         "the report")

    audit = commands.add_parser(
        "audit",
        help="benchmark self-audit: SoK fault rules over experiment "
        "artifacts (configs, results databases, traces)",
    )
    audit.add_argument("paths", nargs="*", default=["configs"],
                       help="artifact files or directories to audit "
                       "(default: configs)")
    audit.add_argument("--json", default=None, metavar="PATH",
                       help="also write a JSON report to this path")
    audit.add_argument("--baseline", default=None, metavar="PATH",
                       help="baseline snapshot for regression checking")
    audit.add_argument("--check", action="store_true",
                       help="gate: exit non-zero on regressions versus the "
                       "baseline (or on error-severity findings when no "
                       "baseline is given)")
    audit.add_argument("--update-baseline", action="store_true",
                       help="write the current audit as the new baseline")
    audit.add_argument("--disable", default=None, metavar="RULES",
                       help="comma-separated audit rule ids to disable")
    audit.add_argument("--min-repetitions", type=int, default=3,
                       metavar="N",
                       help="repetitions below which single-run fires "
                       "(default 3)")

    perf = commands.add_parser(
        "perf", help="micro-benchmark the bulk vs scalar kernel paths"
    )
    perf.add_argument("--quick", action="store_true",
                      help="small graph, single repeat (smoke mode)")
    perf.add_argument("--scale", type=int, default=13,
                      help="R-MAT scale (default 13: ~131k edges)")
    perf.add_argument("--edge-factor", type=int, default=16,
                      help="R-MAT edges per vertex")
    perf.add_argument("--repeats", type=int, default=3,
                      help="timing repeats per path (best-of)")
    perf.add_argument("--kernels", default=None,
                      help="comma-separated kernel names (default: all)")
    perf.add_argument("--output", default="BENCH_kernels.json",
                      help="JSON report path")
    perf.add_argument("--json", action="store_true", dest="as_json",
                      help="print the full JSON report (including the "
                      "wall-time mean/std variance fields) to stdout")
    perf.add_argument("--datagen-scale", type=int, default=None,
                      metavar="N",
                      help="R-MAT scale for the datagen micro kernel "
                      "(default: scale + 5)")

    trace = commands.add_parser(
        "trace",
        help="summarize a structured JSONL run trace (from run --trace)",
    )
    trace.add_argument("trace", help="JSONL trace file of one benchmark cell")
    trace.add_argument("--rounds", action="store_true",
                       help="also list every round span")

    analyze = commands.add_parser(
        "analyze",
        help="compare two runs (traces/results-dbs/submissions) and flag "
        "regressions",
    )
    analyze.add_argument("old", help="baseline: trace, results db, or "
                         "submission document")
    analyze.add_argument("new", help="candidate, same formats")
    analyze.add_argument("--threshold", type=float, default=0.05,
                         metavar="FRACTION",
                         help="relative growth tolerated before a metric "
                         "counts as regressed (default 0.05)")
    analyze.add_argument("--check", action="store_true",
                         help="gate: exit non-zero when regressions are "
                         "found")

    whatif = commands.add_parser(
        "whatif",
        help="execute one suite and re-cost it across hardware profiles",
    )
    whatif.add_argument("--graphs", default="graph500-12",
                        help="comma-separated catalog names (default: "
                        "graph500-12)")
    whatif.add_argument("--algorithms", default="BFS,PR",
                        help="comma-separated algorithm subset "
                        "(default: BFS,PR)")
    whatif.add_argument("--platforms", default=None,
                        help="comma-separated cluster platforms "
                        "(default: every distributed platform; "
                        "single-machine platforms pin their own hardware)")
    whatif.add_argument("--profiles",
                        default="paper-1gbe,10gbe,rdma",
                        help="comma-separated profile sweep; the suite "
                        "executes once under the first profile and the "
                        "rest are exact re-costs "
                        f"(registered: {','.join(available_profiles())})")
    whatif.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker count (default: the base profile's "
                        "reference testbed)")

    calibrate = commands.add_parser(
        "calibrate",
        help="fit a hardware profile's free parameters to reference "
        "runtimes",
    )
    calibrate.add_argument("--profile", default=DEFAULT_PROFILE,
                           help="base profile to calibrate "
                           f"(default: {DEFAULT_PROFILE})")
    calibrate.add_argument("--target", action="append", default=None,
                           metavar="PLATFORM:GRAPH:ALG=SECONDS",
                           help="reference runtime for one cell, e.g. "
                           "giraph:graph500-8:BFS=12.0; repeatable "
                           "(default: the built-in Figure 4/5 proxy "
                           "targets)")
    calibrate.add_argument("--sweeps", type=int, default=3, metavar="N",
                           help="coordinate-descent sweeps (default 3)")
    calibrate.add_argument("--workers", type=int, default=None, metavar="N",
                           help="worker count for the calibration runs "
                           "(default: the profile's reference testbed)")

    selfcheck = commands.add_parser(
        "selfcheck",
        help="chain the tier-1 test suite, quality gate, quick perf "
        "harness, trace-replay check, and calibration smoke in one "
        "command",
    )
    selfcheck.add_argument("--fast", action="store_true",
                           help="skip tests marked slow (-m 'not slow')")
    selfcheck.add_argument("--skip-tests", action="store_true",
                           help="skip the pytest stage")
    selfcheck.add_argument("--skip-quality", action="store_true",
                           help="skip the quality-gate stage")
    selfcheck.add_argument("--skip-audit", action="store_true",
                           help="skip the benchmark self-audit stage")
    selfcheck.add_argument("--skip-perf", action="store_true",
                           help="skip the quick perf stage")
    selfcheck.add_argument("--skip-trace", action="store_true",
                           help="skip the trace-replay stage")
    selfcheck.add_argument("--skip-calibrate", action="store_true",
                           help="skip the calibration-fitter smoke stage")

    leaderboard = commands.add_parser(
        "leaderboard",
        help="rank platforms from a results database (the public results vision)",
    )
    leaderboard.add_argument("--results-db", required=True)
    leaderboard.add_argument("--graph", required=True)
    leaderboard.add_argument("--algorithm", required=True)

    return parser


def _resolve_run_selection(args: argparse.Namespace):
    """Merge CLI flags with an optional config file into run settings.

    Returns ``(platform_names, graph_names, algorithms, time_limit,
    validate)``; explicit flags always win over the config file.
    """
    config_spec = None
    config_time_limit = None
    if args.config:
        config_spec, config_time_limit = load_benchmark_config(args.config)

    if args.platforms:
        platform_names = [name.strip() for name in args.platforms.split(",")]
    elif config_spec is not None and config_spec.platforms is not None:
        platform_names = config_spec.platforms
    else:
        platform_names = available_platforms()

    if args.graphs != _DEFAULT_GRAPHS or config_spec is None or (
        config_spec.graphs is None
    ):
        graph_names = [name.strip() for name in args.graphs.split(",")]
    else:
        graph_names = config_spec.graphs

    algorithms = None
    if args.algorithms:
        algorithms = [
            Algorithm.from_name(name) for name in args.algorithms.split(",")
        ]
    elif config_spec is not None:
        algorithms = config_spec.algorithms

    time_limit = (
        args.time_limit if args.time_limit is not None else config_time_limit
    )
    validate = not args.no_validate
    if config_spec is not None and not config_spec.validate_outputs:
        validate = False

    repetitions = args.repetitions
    if repetitions is None:
        repetitions = config_spec.repetitions if config_spec else 1
    warmup = args.warmup
    if warmup is None:
        warmup = config_spec.warmup_runs if config_spec else 0
    spec = BenchmarkRunSpec(
        algorithms=algorithms,
        validate_outputs=validate,
        repetitions=max(repetitions, 1),
        warmup_runs=max(warmup, 0),
    )
    return platform_names, graph_names, spec, time_limit, validate


def _resolve_cluster(args: argparse.Namespace) -> ClusterSpec:
    """The distributed platforms' cluster from flags and config.

    With no ``--hardware-profile``/``--workers`` flag and no
    ``[hardware]`` config section, this is exactly
    ``ClusterSpec.paper_distributed()`` — the historical default.
    """
    settings = None
    if getattr(args, "config", None):
        settings = load_hardware_settings(args.config)
    profile_name = args.hardware_profile or (
        settings.profile if settings else None
    )
    workers = args.workers if args.workers is not None else (
        settings.workers if settings else None
    )
    if profile_name is None and workers is None:
        return ClusterSpec.paper_distributed()
    resolved_profile = profile_name or DEFAULT_PROFILE
    if workers is None:
        workers = default_workers(resolved_profile)
    return ClusterSpec.from_profile(resolved_profile, num_workers=workers)


def _preflight_audit(spec: BenchmarkRunSpec, time_limit: float | None) -> int:
    """Audit the resolved run spec; non-zero means abort the run.

    This is the SoK gate applied *before* spending any benchmark time:
    a suite configured without repetitions or validation fails here
    instead of producing an unsound report.
    """
    file_report = audit_spec(spec, time_limit)
    for finding in file_report.findings:
        print(f"audit: {finding.severity} [{finding.rule}] {finding.message}")
    errors = file_report.error_findings()
    if errors:
        print(f"audit: {len(errors)} error-severity finding(s); aborting "
              "(rerun without --audit to override)")
        return 2
    return 0


def _command_run(args: argparse.Namespace) -> int:
    (
        platform_names, graph_names, spec, time_limit, validate,
    ) = _resolve_run_selection(args)
    if args.audit:
        preflight = _preflight_audit(spec, time_limit)
        if preflight:
            return preflight

    try:
        distributed = _resolve_cluster(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}")
        return 2
    platforms = create_platform_fleet(distributed, names=platform_names)
    mem_limit = None
    if args.mem_limit:
        mem_limit = parse_bytes(args.mem_limit)
        for platform in platforms:
            apply_mem_limit(platform, mem_limit)
    fault_plan = FaultPlan.parse(args.inject) if args.inject else None
    graphs = {name: load_dataset(name) for name in graph_names}
    core = BenchmarkCore(
        platforms,
        graphs,
        validator=OutputValidator() if validate else None,
        time_limit_seconds=time_limit,
        timeout_seconds=args.timeout,
        fault_plan=fault_plan,
        max_retries=args.retries,
        retry_backoff_seconds=args.retry_backoff,
        trace_dir=args.trace,
        graph_store=args.graph_store,
    )
    suite = core.run(spec, parallel=args.parallel)
    configuration = {
        "platforms": ",".join(sorted(p.name for p in platforms)),
        "graphs": ",".join(sorted(graphs)),
        "cluster": distributed.name,
    }
    if spec.repetitions > 1:
        configuration["repetitions"] = str(spec.repetitions)
    if spec.warmup_runs > 0:
        configuration["warmup"] = str(spec.warmup_runs)
    if mem_limit is not None:
        configuration["mem-limit"] = f"{int(mem_limit)} bytes/worker"
    if args.timeout is not None:
        configuration["timeout"] = f"{args.timeout} s"
    if fault_plan is not None:
        configuration["inject"] = args.inject
    if args.trace:
        configuration["trace"] = args.trace
    _write_run_artifacts(args, suite, configuration)
    return 0 if not suite.failures() or suite.successes() else 1


def _write_run_artifacts(args, suite, configuration) -> None:
    """Emit the report and optional HTML/results-db/trace artifacts."""
    generator = ReportGenerator(configuration=configuration)
    quality = analyze_tree("src") if args.with_quality else None
    path = generator.write(suite, args.report, quality=quality)
    print(generator.render(suite, quality=quality))
    print(f"\nreport written to {path}")
    if args.html:
        html_path = generator.write_html(suite, args.html)
        print(f"HTML report written to {html_path}")
    if args.results_db:
        written = ResultsDatabase(args.results_db).submit(suite)
        print(f"{written} results appended to {args.results_db}")
    if args.trace:
        traced = sum(1 for r in suite.results if r.trace_path)
        print(f"{traced} trace file(s) written to {args.trace}")


def _command_datagen(args: argparse.Namespace) -> int:
    config = DatagenConfig(
        num_persons=args.persons,
        degree_distribution=args.distribution,
        seed=args.seed,
    )
    graph = Datagen(config).generate()
    count = write_edge_list(graph, args.output)
    print(
        f"generated {graph.num_vertices} persons, {count} knows edges "
        f"-> {args.output}"
    )
    return 0


def _command_characterize(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset)
    row = graph_characteristics(graph, args.dataset)
    print(f"{'dataset':<14}{'nodes':>9}{'edges':>10}{'GlCC':>9}{'AvgCC':>9}{'Asrt':>9}")
    print(
        f"{row.name:<14}{row.num_vertices:>9}{row.num_edges:>10}"
        f"{row.global_clustering:>9.4f}{row.average_clustering:>9.4f}"
        f"{row.assortativity:>9.4f}"
    )
    return 0


def _gate_report(report, args, default_baseline: str, label: str) -> int:
    """Shared ``--json`` / ``--update-baseline`` / ``--check`` plumbing.

    Both ``quality`` (Python source) and ``audit`` (experiment
    artifacts) produce a :class:`QualityReport`; this is the one gate
    behind both commands, and selfcheck's gate stages run them.
    """
    if args.json:
        Path(args.json).write_text(render_json(report), encoding="utf-8")
        print(f"JSON report written to {args.json}")
    if args.update_baseline:
        path = save_baseline(report, args.baseline or default_baseline)
        print(f"baseline written to {path}")
        return 0
    if args.check:
        baseline = None
        if args.baseline:
            try:
                baseline = load_baseline(args.baseline)
            except FileNotFoundError:
                print(f"error: baseline {args.baseline!r} does not exist "
                      "(create one with --update-baseline)")
                return 2
            except ValueError as exc:
                print(f"error: unreadable baseline {args.baseline!r}: {exc}")
                return 2
        gate = quality_gate(report, baseline)
        if not gate.passed:
            print(f"{label} FAILED:")
            for regression in gate.regressions:
                print(f"  {regression.severity}: {regression.message}")
            return gate.exit_code
        print(f"{label} passed")
    return 0


def _disabled_rules(raw: str | None) -> frozenset[str]:
    """Parse a ``--disable`` comma list into a rule-id set."""
    if not raw:
        return frozenset()
    return frozenset(rule.strip() for rule in raw.split(",") if rule.strip())


def _command_quality(args: argparse.Namespace) -> int:
    config = AnalysisConfig(disabled=_disabled_rules(args.disable))
    timings: dict[str, float] | None = {} if args.profile_rules else None
    report = analyze_tree(
        args.root, config, jobs=max(1, args.jobs), rule_timings=timings
    )
    print(render_text(report))
    if timings is not None:
        print()
        print(render_rule_profile(timings))
    return _gate_report(report, args, ".quality-baseline.json", "quality gate")


def _command_audit(args: argparse.Namespace) -> int:
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"error: no experiment artifacts found under {missing}")
        return 2
    config = AnalysisConfig(
        disabled=_disabled_rules(args.disable),
        min_repetitions=args.min_repetitions,
    )
    report = audit_paths(args.paths, config)
    if not report.files:
        print(f"error: no experiment artifacts found under {args.paths}")
        return 2
    print(render_text(report))
    return _gate_report(report, args, ".audit-baseline.json", "audit gate")


def _command_perf(args: argparse.Namespace) -> int:
    from repro.perf import default_kernels, run_perf, write_report

    scale, edge_factor, repeats = args.scale, args.edge_factor, args.repeats
    if args.quick:
        scale, edge_factor, repeats = 8, 8, 1
    kernels = None
    if args.kernels:
        wanted = {name.strip() for name in args.kernels.split(",")}
        kernels = [k for k in default_kernels() if k.name in wanted]
        unknown = wanted - {k.name for k in kernels}
        if unknown:
            print(f"error: unknown kernels {sorted(unknown)}; choose from "
                  f"{[k.name for k in default_kernels()]}")
            return 2
    report = run_perf(
        scale=scale, edge_factor=edge_factor, repeats=repeats, kernels=kernels,
        datagen_scale=args.datagen_scale,
    )
    if args.as_json:
        print(report.to_json(), end="")
    else:
        print(f"{'kernel':<24}{'bulk s':>10}{'scalar s':>10}{'speedup':>9}"
              f"{'consrv':>9}  sim-match")
        for timing in report.kernels:
            print(
                f"{timing.name:<24}{timing.bulk_wall_seconds:>10.4f}"
                f"{timing.scalar_wall_seconds:>10.4f}{timing.speedup:>8.1f}x"
                f"{timing.conservative_speedup:>8.1f}x"
                f"  {'yes' if timing.simulated_match else 'NO'}"
            )
    path = write_report(report, args.output)
    if not args.as_json:
        print(f"\nkernel timings written to {path}")
    return 0 if all(t.simulated_match for t in report.kernels) else 1


def _command_trace(args: argparse.Namespace) -> int:
    from repro.observability import parse_trace, read_trace

    try:
        attempts = parse_trace(read_trace(args.trace))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}")
        return 2
    if not attempts:
        print(f"error: {args.trace} contains no run attempts")
        return 2
    for attempt in attempts:
        print(
            f"attempt {attempt.attempt}: {attempt.platform}/{attempt.graph}/"
            f"{attempt.algorithm.lower()}  status={attempt.status}"
        )
        if attempt.complete:
            profile = attempt.to_profile()
            breakdown = profile.breakdown()
            print(
                f"  rounds={profile.num_rounds} "
                f"simulated={profile.simulated_seconds:.2f} s "
                f"net={profile.total_remote_bytes / 2**20:.2f} MiB "
                f"peak-mem={profile.peak_memory / 2**20:.2f} MiB "
                f"dominant={breakdown.dominant()}"
            )
            print(f"  time {breakdown.describe()}")
        if args.rounds:
            for record in attempt.rounds:
                print(
                    f"    {record.name:<20} {record.seconds:9.3f} s "
                    f"net={record.remote_bytes / 2**20:8.2f} MiB "
                    f"active={record.active_vertices}"
                )
        for fault in attempt.faults:
            print(
                f"  fault@round {fault.get('round')}: {fault.get('kind')} "
                f"({fault.get('detail')})"
            )
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    from repro.observability import compare_metrics, load_metrics

    try:
        old = load_metrics(args.old)
        new = load_metrics(args.new)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    regressions = compare_metrics(old, new, threshold=args.threshold)
    matched = sum(1 for key in old if key in new)
    print(
        f"compared {matched} matched run(s) "
        f"({len(old)} baseline, {len(new)} candidate, "
        f"threshold {args.threshold:.0%})"
    )
    if not regressions:
        print("no regressions")
        return 0
    print(f"{len(regressions)} regression(s):")
    for regression in regressions:
        print(f"  {regression.describe()}")
    return 1 if args.check else 0


def _command_whatif(args: argparse.Namespace) -> int:
    from repro.hardware.whatif import run_whatif

    profiles = [p.strip() for p in args.profiles.split(",") if p.strip()]
    graphs = [g.strip() for g in args.graphs.split(",") if g.strip()]
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    platforms = None
    if args.platforms:
        platforms = [p.strip() for p in args.platforms.split(",") if p.strip()]
    try:
        report = run_whatif(
            graphs,
            algorithms=algorithms,
            platforms=platforms,
            profiles=profiles,
            workers=args.workers,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}")
        return 2
    print(
        f"suite executed once under {report.base_profile!r} "
        f"({report.num_workers} workers); other columns are exact "
        "re-costs of the recorded charges"
    )
    print(report.render())
    return 0


def _parse_calibration_target(raw: str) -> tuple[tuple[str, str, str], float]:
    """Parse one ``platform:graph:ALG=seconds`` target override."""
    cell, _, seconds = raw.partition("=")
    parts = cell.split(":")
    if len(parts) != 3 or not seconds:
        raise ValueError(
            f"bad target {raw!r}; expected platform:graph:ALG=seconds"
        )
    platform, graph, algorithm = (part.strip() for part in parts)
    return (platform, graph, algorithm.upper()), float(seconds)


def _command_calibrate(args: argparse.Namespace) -> int:
    from repro.api import run_benchmark
    from repro.hardware.calibrate import REFERENCE_TARGETS, calibrate
    from repro.hardware.registry import get_profile

    try:
        base = get_profile(args.profile)
    except KeyError as exc:
        print(f"error: {exc.args[0]}")
        return 2
    targets = dict(REFERENCE_TARGETS)
    if args.target:
        targets = {}
        for raw in args.target:
            try:
                key, seconds = _parse_calibration_target(raw)
            except ValueError as exc:
                print(f"error: {exc}")
                return 2
            targets[key] = seconds
    platforms = sorted({platform for platform, _, _ in targets})
    graphs = sorted({graph for _, graph, _ in targets})
    algorithms = sorted({algorithm for _, _, algorithm in targets})
    workers = (
        args.workers
        if args.workers is not None
        else default_workers(args.profile)
    )
    cluster = ClusterSpec.from_profile(base, num_workers=workers)
    suite = run_benchmark(
        graphs,
        platforms=platforms,
        algorithms=algorithms,
        cluster=cluster,
        validate=False,
    )
    runs = []
    for result in suite.results:
        key = (result.platform, result.graph_name, result.algorithm.value)
        if key not in targets:
            continue
        if not result.succeeded:
            print(
                f"error: calibration cell {key} failed: "
                f"{result.failure_reason}"
            )
            return 2
        runs.append((result.run.profile, targets[key]))
    if not runs:
        print("error: no calibration cells executed")
        return 2
    result = calibrate(runs, base, sweeps=args.sweeps)
    print(f"fitted {len(runs)} cell(s) over {workers} workers")
    print(result.summary())
    return 0


#: Hard ceiling on a full-src static analysis inside selfcheck.
_QUALITY_BUDGET_SECONDS = 30.0


def _selfcheck_tests(fast: bool) -> bool:
    """Run the tier-1 pytest suite (``-m 'not slow'`` when fast)."""
    import subprocess

    command = [sys.executable, "-m", "pytest", "-x", "-q"]
    if fast:
        command += ["-m", "not slow"]
    print(f"selfcheck: running {' '.join(command)}")
    return subprocess.run(command).returncode == 0


def _selfcheck_quality() -> bool:
    """Run the static-analysis gate over src within its time budget."""
    import time as _time

    print("selfcheck: running quality gate")
    quality_start = _time.perf_counter()
    # Fan the per-file rules out over a few workers; the growing rule
    # set must not push the full-src analysis past its budget.
    jobs = max(1, min(4, (os.cpu_count() or 1) - 1))
    passed = main([
        "quality", "--root", "src", "--jobs", str(jobs),
        "--baseline", ".quality-baseline.json", "--check",
    ]) == 0
    quality_seconds = _time.perf_counter() - quality_start
    # The interprocedural rules (call graph + fixpoints) must stay
    # interactive: a full-src analysis has a hard 30 s budget so
    # the gate never becomes the slow step of a commit.
    within_budget = quality_seconds < _QUALITY_BUDGET_SECONDS
    if not within_budget:
        print(
            f"  analysis took {quality_seconds:.1f}s "
            f"(budget {_QUALITY_BUDGET_SECONDS:.0f}s)"
        )
    print(f"  quality gate analyzed src in {quality_seconds:.1f}s")
    return passed and within_budget


def _selfcheck_audit() -> bool:
    """Run the benchmark self-audit over the shipped experiment suite."""
    print("selfcheck: running benchmark self-audit over configs")
    return main([
        "audit", "configs", "--baseline", ".audit-baseline.json", "--check",
    ]) == 0


def _selfcheck_perf() -> bool:
    """Run the quick perf harness and check bulk/scalar equivalence."""
    from repro.perf import run_perf

    print("selfcheck: running quick perf harness")
    perf_report = run_perf(scale=8, edge_factor=8, repeats=1)
    for timing in perf_report.kernels:
        if not timing.simulated_match:
            print(f"  {timing.name}: bulk/scalar simulated-cost mismatch")
    return all(t.simulated_match for t in perf_report.kernels)


def _selfcheck_trace() -> bool:
    """Run a traced, repeated cell and verify its one run block.

    Checks the block count, replay against the result's profile, and
    a clean ``analyze --check`` self-comparison.
    """
    import tempfile

    from repro.observability import parse_trace, read_trace, verify_replay

    print("selfcheck: running trace-replay check")
    passed = False
    with tempfile.TemporaryDirectory() as tmp:
        graphs = {"graph500-8": load_dataset("graph500-8")}
        platforms = create_platform_fleet(
            ClusterSpec.paper_distributed(), names=["giraph"]
        )
        core = BenchmarkCore(platforms, graphs, trace_dir=tmp)
        suite = core.run(
            BenchmarkRunSpec(
                algorithms=[Algorithm.BFS], repetitions=3, warmup_runs=1
            )
        )
        result = suite.results[0]
        if not (result.succeeded and result.trace_path):
            print(f"  traced run failed: {result.failure_reason}")
        else:
            # A fault-free cell executes once whatever its repetitions
            # and warmup, so its trace holds exactly one run block.
            blocks = len(parse_trace(read_trace(result.trace_path)))
            if blocks != 1:
                print(f"  trace holds {blocks} run blocks, expected 1")
            mismatches = verify_replay(result.trace_path, result.run.profile)
            for mismatch in mismatches:
                print(f"  replay mismatch: {mismatch}")
            analyze_args = argparse.Namespace(
                old=result.trace_path,
                new=result.trace_path,
                threshold=0.05,
                check=True,
            )
            passed = (
                blocks == 1
                and not mismatches
                and _command_analyze(analyze_args) == 0
            )
    return passed


def _selfcheck_calibrate() -> bool:
    """Smoke the calibration fitter: one cheap fit must not diverge."""
    from repro.api import run_benchmark
    from repro.hardware.calibrate import REFERENCE_TARGETS, calibrate
    from repro.hardware.registry import get_profile

    print("selfcheck: running calibration-fitter smoke")
    base = get_profile(DEFAULT_PROFILE)
    suite = run_benchmark(
        ["graph500-8"],
        platforms=["giraph"],
        algorithms=["BFS", "PR"],
        cluster=ClusterSpec.from_profile(base, num_workers=10),
        validate=False,
    )
    runs = []
    for result in suite.results:
        if not result.succeeded:
            print(f"  calibration run failed: {result.failure_reason}")
            return False
        key = (result.platform, result.graph_name, result.algorithm.value)
        runs.append((result.run.profile, REFERENCE_TARGETS[key]))
    fit = calibrate(runs, base, sweeps=1)
    if fit.error_after > fit.error_before:
        print(
            f"  fitter diverged: {fit.error_before:.4f} -> "
            f"{fit.error_after:.4f}"
        )
        return False
    print(
        f"  rms log error {fit.error_before:.4f} -> {fit.error_after:.4f} "
        f"({fit.evaluations} evaluations)"
    )
    return True


def _command_selfcheck(args: argparse.Namespace) -> int:
    """One command that answers "is this checkout healthy?".

    Chains the repo's own verification stages — tier-1 pytest suite,
    static-analysis quality gate against the checked-in baseline, the
    benchmark self-audit over the shipped configs, the quick perf
    harness (bulk/scalar equivalence), the trace-replay check (a
    traced run's JSONL re-aggregates to the exact recorded profile and
    self-compares clean under ``analyze --check``), and the
    calibration-fitter smoke — and reports a pass/fail summary.
    ``make check`` delegates here.
    """
    plan: list[tuple[str, bool, Callable[[], bool]]] = [
        ("tests", args.skip_tests, lambda: _selfcheck_tests(args.fast)),
        ("quality gate", args.skip_quality, _selfcheck_quality),
        ("audit gate", args.skip_audit, _selfcheck_audit),
        ("perf --quick", args.skip_perf, _selfcheck_perf),
        ("trace replay", args.skip_trace, _selfcheck_trace),
        ("calibrate smoke", args.skip_calibrate, _selfcheck_calibrate),
    ]
    stages: list[tuple[str, str]] = []
    exit_code = 0
    for name, skipped, stage in plan:
        if skipped:
            stages.append((name, "skipped"))
            continue
        passed = stage()
        stages.append((name, "ok" if passed else "FAILED"))
        if not passed:
            exit_code = 1

    print("\nselfcheck summary:")
    for name, status in stages:
        print(f"  {name:<14} {status}")
    print("selfcheck: " + ("PASS" if exit_code == 0 else "FAIL"))
    return exit_code


def _command_leaderboard(args: argparse.Namespace) -> int:
    db = ResultsDatabase(args.results_db)
    ranking = db.leaderboard(args.graph, args.algorithm.upper())
    if not ranking:
        print(f"no successful {args.algorithm} results for {args.graph}")
        return 1
    print(f"{args.algorithm.upper()} on {args.graph}:")
    for rank, (platform, runtime) in enumerate(ranking, start=1):
        print(f"  {rank}. {platform:<12} {runtime:9.1f} s")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``graphalytics`` command."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _command_run,
        "datagen": _command_datagen,
        "characterize": _command_characterize,
        "quality": _command_quality,
        "audit": _command_audit,
        "perf": _command_perf,
        "trace": _command_trace,
        "analyze": _command_analyze,
        "whatif": _command_whatif,
        "calibrate": _command_calibrate,
        "selfcheck": _command_selfcheck,
        "leaderboard": _command_leaderboard,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
