"""The Benchmark Core (paper Figure 2).

"The Benchmark Core module implements the benchmark harness that binds
together Graphalytics." It executes every selected (platform, graph,
algorithm) combination, catches platform failures (reported as
Figure 4's missing values), validates outputs, applies the configured
time limit (the paper's MapReduce runs on Graph500 hit exactly such a
limit), gathers monitor samples, and hands results to the report
generator and results database.
"""

from __future__ import annotations

import concurrent.futures
import random
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.chokepoints import ChokePointReport, analyze_profile
from repro.core.errors import PlatformFailure, SuiteWorkerError, ValidationFailure
from repro.core.metrics import edges_traversed_for, kteps
from repro.core.monitor import SystemMonitor, UtilizationSample
from repro.core.platform_api import Platform, PlatformRun
from repro.core.stats import RuntimeStats
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm, AlgorithmParams, BenchmarkRunSpec
from repro.graph.graph import Graph
from repro.observability.sinks import JsonlTraceWriter
from repro.robustness.faults import FaultInjector, FaultPlan

__all__ = [
    "BenchmarkResult",
    "BenchmarkSuiteResult",
    "BenchmarkCore",
    "combo_seed",
]

#: Result status values.
SUCCESS = "success"
FAILED = "failed"
INVALID = "invalid"


def combo_seed(platform_name: str, graph_name: str) -> int:
    """Deterministic RNG seed for one (platform, graph) combination.

    Derived with CRC32 (not the salted builtin ``hash``) so every
    interpreter process — sequential run, or any worker of the
    parallel suite runner — pins the same seed for the same
    combination, making results independent of scheduling and process
    placement.
    """
    return zlib.crc32(f"{platform_name}/{graph_name}".encode("utf-8"))


@dataclass
class BenchmarkResult:
    """Outcome of one (platform, graph, algorithm) execution."""

    platform: str
    graph_name: str
    algorithm: Algorithm
    status: str
    runtime_seconds: float | None = None
    kteps: float | None = None
    failure_reason: str | None = None
    run: PlatformRun | None = None
    samples: list[UtilizationSample] = field(default_factory=list)
    #: Per-repetition runtimes when the run spec asks for several;
    #: ``runtime_seconds`` is then their mean. A fault-free cell
    #: executes once and records that run for every repetition.
    repetition_runtimes: list[float] = field(default_factory=list)
    #: Warmup executions the run spec declares for this cell. They
    #: execute (and are discarded) only under a fault plan; without
    #: one they would repeat the measured execution exactly.
    warmup_runs: int = 0
    #: Algorithm-execution attempts this cell took (> 1 after retries
    #: of injected transient faults).
    attempts: int = 1
    #: Simulated backoff seconds spent between retry attempts (kept
    #: out of ``runtime_seconds``, which measures the successful run).
    backoff_seconds: float = 0.0
    #: Choke-point indicators of the recorded run (paper Section 2.1);
    #: populated whenever a run profile exists, so report matrices and
    #: database rows can show each cell's dominant choke point.
    chokepoints: ChokePointReport | None = None
    #: Where this cell's JSONL trace landed, when tracing was on.
    trace_path: str | None = None

    @property
    def succeeded(self) -> bool:
        """Whether this execution completed and validated."""
        return self.status == SUCCESS

    @property
    def runtime_stats(self) -> RuntimeStats | None:
        """Mean/std/CI95 of the recorded repetition runtimes.

        ``None`` when no repetitions were recorded (failures before
        any repetition completed, or hand-built results carrying only
        ``runtime_seconds``).
        """
        return RuntimeStats.from_samples(self.repetition_runtimes)


@dataclass
class BenchmarkSuiteResult:
    """All results of one benchmark invocation."""

    results: list[BenchmarkResult] = field(default_factory=list)

    def lookup(
        self, platform: str, graph_name: str, algorithm: Algorithm
    ) -> BenchmarkResult | None:
        """The result for one (platform, graph, algorithm), if any."""
        for result in self.results:
            if (
                result.platform == platform
                and result.graph_name == graph_name
                and result.algorithm == algorithm
            ):
                return result
        return None

    def successes(self) -> list[BenchmarkResult]:
        """All successful results."""
        return [r for r in self.results if r.succeeded]

    def failures(self) -> list[BenchmarkResult]:
        """All failed or invalid results."""
        return [r for r in self.results if not r.succeeded]

    def runtime_table(self) -> dict[tuple[str, str, str], float | None]:
        """``{(algorithm, graph, platform): runtime or None}`` (Figure 4)."""
        return {
            (r.algorithm.value, r.graph_name, r.platform): r.runtime_seconds
            if r.succeeded
            else None
            for r in self.results
        }


class BenchmarkCore:
    """Runs the full benchmark matrix.

    Parameters
    ----------
    platforms:
        Platform driver instances (already bound to cluster specs).
    graphs:
        ``{name: Graph}`` — the configured datasets.
    validator:
        Output validator; pass ``None`` to skip validation entirely.
    time_limit_seconds:
        Simulated-runtime budget per execution, checked by the core
        after the run completes; runs exceeding it are recorded as
        ``time-limit`` failures (the paper's "due to time constraints,
        MapReduce was not able to complete some algorithms").
    timeout_seconds:
        Per-run budget enforced *inside* the driver API: exceeding it
        raises a typed :class:`~repro.core.errors.SimulatedTimeout`,
        recorded as a ``timeout`` failure cell.
    fault_plan:
        Optional :class:`~repro.robustness.faults.FaultPlan`; a fresh
        seeded injector is bound per (platform, graph, algorithm)
        combination, so injection is deterministic per cell.
    max_retries:
        Bounded retry budget for *transient* failures (injected
        faults whose plan allows later attempts to succeed).
    retry_backoff_seconds:
        Simulated backoff added per retry attempt (linear backoff:
        attempt *n* waits ``n * retry_backoff_seconds``).
    strict:
        ``False`` (default) records unexpected non-platform errors as
        ``FAILED(error: ...)`` cells — graceful degradation, the
        suite keeps running; ``True`` re-raises them (wrapped with
        their combo metadata).
    trace_dir:
        When set, every (platform, graph, algorithm) cell writes a
        structured JSONL trace
        (``<platform>_<graph>_<algorithm>.jsonl``) into this
        directory via an attached
        :class:`~repro.observability.JsonlTraceWriter`. Tracing is
        observe-only: recorded profiles are bit-identical with or
        without it. A fault-free cell executes once, so its trace
        holds one run; under a fault plan it holds every warmup,
        repetition and retried attempt.
    graph_store:
        When set, parallel runs (``run(parallel=n)``) persist each
        distinct graph once into this directory (content-addressed,
        ``.npy`` arrays) and ship pool workers the *path*; workers
        memory-map the arrays, sharing OS pages instead of each
        unpickling a full copy of the graph. Without it, workers
        receive pickled graphs as before. Results are identical
        either way.
    """

    def __init__(
        self,
        platforms: list[Platform],
        graphs: dict[str, Graph],
        validator: OutputValidator | None = None,
        time_limit_seconds: float | None = None,
        timeout_seconds: float | None = None,
        fault_plan: FaultPlan | None = None,
        max_retries: int = 0,
        retry_backoff_seconds: float = 1.0,
        strict: bool = False,
        trace_dir: str | Path | None = None,
        graph_store: str | Path | None = None,
    ):
        names = [p.name for p in platforms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate platform names: {names}")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.platforms = platforms
        self.graphs = graphs
        self.validator = validator
        self.time_limit_seconds = time_limit_seconds
        self.timeout_seconds = timeout_seconds
        self.fault_plan = fault_plan
        self.max_retries = max_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.strict = strict
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.graph_store = Path(graph_store) if graph_store is not None else None
        self.monitor = SystemMonitor()
        # graph -> 2 * undirected edge count, for the TEPS metric; the
        # undirected view itself is cached on the Graph, but the memo
        # also skips re-deriving it per result per repetition.
        self._edges_traversed_memo: dict[tuple[Graph, Algorithm], float] = {}

    def run(
        self, spec: BenchmarkRunSpec | None = None, parallel: int = 1
    ) -> BenchmarkSuiteResult:
        """Execute the benchmark for a run spec (default: everything).

        ``parallel=n`` (n > 1) distributes the selected (platform,
        graph) pairs over a pool of ``n`` worker processes. Each pair
        stays whole — its ETL still happens exactly once, in the
        process that runs its algorithms — and every pair's RNG is
        pinned to :func:`combo_seed` before it executes, so the suite
        result is identical to a sequential run (modulo the real
        wall-clock fields ``wall_seconds``/``etl_seconds``), in the
        same spec order, regardless of worker count or scheduling.
        """
        spec = spec or BenchmarkRunSpec()
        graphs = dict(self.graphs)
        if spec.selects_algorithm(Algorithm.SSSP):
            # SSSP needs edge weights. Datasets that ship without them
            # get deterministic derived weights (the Graphalytics
            # datagen ``wgt`` annotation equivalent) so the default
            # "run everything" matrix works on every catalog graph;
            # the weighted graph is what the platforms *and* the
            # validator see, so the comparison stays consistent. An
            # explicitly weighted dataset is used as-is.
            graphs = {
                name: (
                    graph
                    if graph.is_weighted
                    else graph.with_uniform_weights()
                )
                for name, graph in graphs.items()
            }
        pairs = [
            (platform, graph_name, graph)
            for platform in self.platforms
            if spec.selects_platform(platform.name)
            for graph_name, graph in sorted(graphs.items())
            if spec.selects_graph(graph_name)
        ]
        suite = BenchmarkSuiteResult()
        if parallel <= 1 or len(pairs) <= 1:
            for platform, graph_name, graph in pairs:
                suite.results.extend(
                    self._run_pair(platform, graph_name, graph, spec)
                )
            return suite
        # With a graph store configured, persist each distinct graph
        # once and ship workers the path; they mmap the arrays and
        # share pages instead of unpickling private copies.
        graph_paths: dict[Graph, str] = {}
        if self.graph_store is not None:
            for _platform, _name, graph in pairs:
                if graph not in graph_paths:
                    entry = self.graph_store / graph.content_key()
                    if not (entry / "meta.json").is_file():
                        graph.save(entry)
                    graph_paths[graph] = str(entry)
        tasks = [
            _PairTask(
                platform=platform,
                graph_name=graph_name,
                graph=None if graph in graph_paths else graph,
                graph_path=graph_paths.get(graph),
                validator=self.validator,
                time_limit_seconds=self.time_limit_seconds,
                timeout_seconds=self.timeout_seconds,
                fault_plan=self.fault_plan,
                max_retries=self.max_retries,
                retry_backoff_seconds=self.retry_backoff_seconds,
                strict=self.strict,
                spec=spec,
                trace_dir=self.trace_dir,
            )
            for platform, graph_name, graph in pairs
        ]
        workers = min(parallel, len(tasks))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            # ``map`` yields in submission order: results merge in
            # spec order no matter which worker finishes first.
            for results in pool.map(_run_pair_task, tasks):
                suite.results.extend(results)
        return suite

    def _run_pair(
        self, platform: Platform, graph_name: str, graph: Graph, spec: BenchmarkRunSpec
    ) -> list[BenchmarkResult]:
        """All selected algorithms of one (platform, graph) pair."""
        # Pinning the global RNGs to the per-combo seed is the
        # determinism mechanism here, not a violation of it: every
        # process — sequential or pool worker — replays the same
        # stream for the same (platform, graph).
        seed = combo_seed(platform.name, graph_name)
        random.seed(seed)  # quality: ignore[determinism]
        np.random.seed(seed & 0xFFFFFFFF)  # quality: ignore[determinism]
        # Robustness knobs are (re)bound per pair: fault injection
        # never leaks from one combination into the next, and ETL runs
        # fault-free (faults target algorithm executions).
        platform.faults = None
        if self.timeout_seconds is not None:
            platform.timeout_seconds = self.timeout_seconds
        supported = set(platform.supported_algorithms())
        results: list[BenchmarkResult] = []
        handle = None
        for algorithm in Algorithm:
            if not spec.selects_algorithm(algorithm):
                continue
            if algorithm not in supported:
                continue
            if handle is None:
                # ETL once per (platform, graph); ETL failures
                # fail every algorithm on that combination.
                try:
                    handle = platform.upload_graph(graph_name, graph)
                except PlatformFailure as failure:
                    results.extend(
                        self._etl_failures(
                            platform, graph_name, spec, supported, failure
                        )
                    )
                    break
                except Exception as exc:
                    # Harness bugs during ETL keep their combo context
                    # even across process-pool boundaries; without
                    # strict mode they degrade to FAILED cells.
                    if self.strict:
                        raise SuiteWorkerError(
                            platform.name,
                            graph_name,
                            f"ETL: {type(exc).__name__}: {exc}",
                        ) from exc
                    failure = PlatformFailure(
                        platform.name,
                        f"error: {type(exc).__name__}: {exc}",
                        "unexpected ETL error",
                    )
                    results.extend(
                        self._etl_failures(
                            platform, graph_name, spec, supported, failure
                        )
                    )
                    break
            results.append(
                self._run_one(platform, handle, graph, algorithm, spec)
            )
        if handle is not None:
            platform.delete_graph(handle)
        platform.faults = None
        return results

    def _etl_failures(
        self,
        platform: Platform,
        graph_name: str,
        spec: BenchmarkRunSpec,
        supported: set[Algorithm],
        failure: PlatformFailure,
    ) -> list[BenchmarkResult]:
        return [
            BenchmarkResult(
                platform=platform.name,
                graph_name=graph_name,
                algorithm=algorithm,
                status=FAILED,
                failure_reason=f"ETL: {failure.reason}",
            )
            for algorithm in Algorithm
            if spec.selects_algorithm(algorithm) and algorithm in supported
        ]

    def _run_one(
        self,
        platform: Platform,
        handle,
        graph: Graph,
        algorithm: Algorithm,
        spec: BenchmarkRunSpec,
    ) -> BenchmarkResult:
        """One cell, with the per-cell trace writer attached around it."""
        writer = None
        saved_sinks = platform.sinks
        if self.trace_dir is not None:
            cell = f"{platform.name}_{handle.name}_{algorithm.value}"
            writer = JsonlTraceWriter(
                self.trace_dir / f"{cell.replace('/', '-')}.jsonl"
            )
            platform.sinks = saved_sinks + (writer,)
        try:
            result = self._execute_cell(platform, handle, graph, algorithm, spec)
        finally:
            # Restore whatever sinks the caller had attached; the
            # per-cell writer never leaks into the next cell.
            platform.sinks = saved_sinks
            if writer is not None:
                writer.close()
        if writer is not None:
            result.trace_path = str(writer.path)
        return result

    def _execute_cell(
        self,
        platform: Platform,
        handle,
        graph: Graph,
        algorithm: Algorithm,
        spec: BenchmarkRunSpec,
    ) -> BenchmarkResult:
        base = BenchmarkResult(
            platform=platform.name,
            graph_name=handle.name,
            algorithm=algorithm,
            status=FAILED,
        )
        if self.fault_plan is not None:
            # Fresh injector per combo: the attempt counter advances
            # across retries of this cell only, and the seeded fault
            # schedule is identical on every suite run.
            platform.faults = FaultInjector(self.fault_plan, platform.name)
        repetitions = max(spec.repetitions, 1)
        warmup = max(spec.warmup_runs, 0)
        base.warmup_runs = warmup
        attempts = 0
        runtimes: list[float] = []
        run = None
        while True:
            attempts += 1
            runtimes = []
            try:
                if platform.faults is None:
                    # Without an injector every execution of a cell is
                    # bit-identical (output and profile are a function
                    # of platform, graph, algorithm, params and
                    # cluster), so the cell runs once and each
                    # repetition records that run; a warmup would only
                    # discard an identical run.
                    run = platform.run_algorithm(handle, algorithm, spec.params)
                    runtimes = [run.simulated_seconds] * repetitions
                else:
                    # The injector reseeds per execution and counts
                    # executions for transient faults, so every
                    # execution runs. Warmup executions run first and
                    # are discarded: they are part of each attempt's
                    # deterministic schedule, so a retried attempt
                    # re-warms exactly the same way.
                    for _warmup in range(warmup):
                        platform.run_algorithm(handle, algorithm, spec.params)
                    for _repetition in range(repetitions):
                        run = platform.run_algorithm(
                            handle, algorithm, spec.params
                        )
                        runtimes.append(run.simulated_seconds)
            except PlatformFailure as failure:
                if failure.transient and attempts <= self.max_retries:
                    # Linear backoff, in simulated seconds; the retry
                    # itself re-executes deterministically.
                    base.backoff_seconds += (
                        attempts * self.retry_backoff_seconds
                    )
                    continue
                base.failure_reason = failure.reason
                base.attempts = attempts
                return base
            except Exception as exc:
                # Graceful degradation: an unexpected (non-platform)
                # error becomes a FAILED cell instead of aborting the
                # suite — unless the core runs strict.
                if self.strict:
                    raise SuiteWorkerError(
                        platform.name,
                        handle.name,
                        f"{algorithm.value}: {type(exc).__name__}: {exc}",
                    ) from exc
                base.failure_reason = f"error: {type(exc).__name__}: {exc}"
                base.attempts = attempts
                return base
            break
        base.attempts = attempts
        base.repetition_runtimes = runtimes
        if run is not None:
            # Choke-point indicators travel with the result so report
            # cells and database rows can label their bottleneck even
            # for time-limit or invalid outcomes.
            base.chokepoints = analyze_profile(run.profile)
        runtime = base.runtime_stats.mean
        if self.time_limit_seconds is not None and runtime > self.time_limit_seconds:
            base.failure_reason = "time-limit"
            base.run = run
            return base
        if self.validator is not None and spec.validate_outputs:
            try:
                self.validator.validate(graph, algorithm, spec.params, run.output)
            except ValidationFailure as invalid:
                base.status = INVALID
                base.failure_reason = str(invalid)
                base.run = run
                return base
        base.status = SUCCESS
        base.runtime_seconds = runtime
        base.kteps = kteps(
            self._edges_traversed(graph, algorithm, spec.params), runtime
        )
        base.run = run
        base.samples = self.monitor.samples_from_profile(run.profile)
        return base

    def _edges_traversed(
        self, graph: Graph, algorithm: Algorithm, params
    ) -> float:
        """Edges the algorithm traverses, for the TEPS metrics.

        Delegates to :func:`repro.core.metrics.edges_traversed_for`
        (which scales PR by its iteration count); memoized per
        (graph, algorithm) — graphs hash by identity and are
        immutable, so repeated cells skip re-deriving the undirected
        view.
        """
        key = (graph, algorithm)
        cached = self._edges_traversed_memo.get(key)
        if cached is None:
            cached = edges_traversed_for(graph, algorithm, params)
            self._edges_traversed_memo[key] = cached
        return cached


@dataclass
class _PairTask:
    """One (platform, graph) work unit shipped to a pool worker.

    Everything a child process needs to run the pair exactly as the
    sequential loop would; module-level (with the worker function) so
    the payload pickles under every start method. Exactly one of
    ``graph`` (pickled payload) and ``graph_path`` (mmap-shared store
    entry) is set.
    """

    platform: Platform
    graph_name: str
    graph: Graph | None
    graph_path: str | None
    validator: OutputValidator | None
    time_limit_seconds: float | None
    timeout_seconds: float | None
    fault_plan: FaultPlan | None
    max_retries: int
    retry_backoff_seconds: float
    strict: bool
    spec: BenchmarkRunSpec
    trace_dir: Path | None = None


def _run_pair_task(task: _PairTask) -> list[BenchmarkResult]:
    """Pool-worker entry: rebuild a single-pair core and run it.

    Any exception escaping the pair is re-raised as a picklable
    :class:`~repro.core.errors.SuiteWorkerError` carrying the
    (platform, graph) combo, so a parallel suite failure names the
    work unit instead of surfacing a bare traceback from an anonymous
    worker process.
    """
    graph = task.graph
    if graph is None:
        graph = Graph.load(task.graph_path, mmap=True)
    core = BenchmarkCore(
        [task.platform],
        {task.graph_name: graph},
        validator=task.validator,
        time_limit_seconds=task.time_limit_seconds,
        timeout_seconds=task.timeout_seconds,
        fault_plan=task.fault_plan,
        max_retries=task.max_retries,
        retry_backoff_seconds=task.retry_backoff_seconds,
        strict=task.strict,
        trace_dir=task.trace_dir,
    )
    try:
        return core._run_pair(task.platform, task.graph_name, graph, task.spec)
    except SuiteWorkerError:
        raise
    except Exception as exc:
        raise SuiteWorkerError(
            task.platform.name,
            task.graph_name,
            f"{type(exc).__name__}: {exc}",
        ) from exc
