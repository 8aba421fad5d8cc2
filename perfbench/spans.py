"""Host-time spans recorded from outside the program.

The traced pass times each layer by wrapping the public entry points
that the harness calls into it; nothing under ``src/`` is changed.
:func:`instrument` installs the wrappers for the duration of a
``with`` block and restores the originals afterwards, so a pass in a
test process leaves the classes as it found them.

Spans nest (trace hooks run inside ``CostMeter`` calls, which run
inside ``run_algorithm``), so every span records both its inclusive
time and its self time: its duration minus the part its child spans
cover. Self times of all spans opened inside the ``harness`` root add
up to the root's duration, which :func:`accounting_gap` checks.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from repro import analysis
from repro.core.cost import CostMeter
from repro.core.platform_api import Platform
from repro.core.report import ReportGenerator
from repro.core.results_db import ResultsDatabase
from repro.core.validation import OutputValidator
from repro.datasets import catalog
from repro.observability.sinks import JsonlTraceWriter, TraceSink

from perfbench.metrics import ALGORITHMS, PLATFORMS

__all__ = [
    "CountingSink",
    "SpanRecorder",
    "accounting_gap",
    "instrument",
    "layer_metrics",
]

#: Spans that can open inside the ``harness`` root; their self times
#: plus the root's own partition the traced wall.
WALL_LAYERS = (
    "harness", "etl", "exec", "cost", "validate", "validate.reference",
    "trace", "report", "resultsdb", "analysis",
)

_COST_METHODS = tuple(
    sorted(name for name in vars(CostMeter) if name.startswith("charge_"))
) + ("begin_round", "end_round", "allocate_memory", "release_memory")

_TRACE_HOOKS = (
    "on_run_begin", "on_round_begin", "on_charge", "on_round_end",
    "on_fault", "on_run_end", "close",
)


class SpanRecorder:
    """In-memory spans: inclusive time, self time and calls per name.

    A span nested inside another span of the same name adds to self
    time but not again to inclusive time, so recursion cannot count an
    interval twice.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Free-form counters and tagged times kept beside the spans.
        self.counts: Counter = Counter()
        self.tagged: defaultdict[str, float] = defaultdict(float)
        #: Distinct (graph, algorithm, params) keys the reference saw.
        self.reference_keys: set = set()

    def enter(self, name: str) -> None:
        """Open a span; it closes with the next :meth:`exit`."""
        self._open[name] += 1
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        name, start, children = self._stack.pop()
        duration = self._clock() - start
        self._open[name] -= 1
        if not self._open[name]:
            self.inclusive[name] += duration
        self.self_time[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextmanager
    def span(self, name: str):
        """``with recorder.span(name):`` times the block as one span."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()


class CountingSink(TraceSink):
    """Counts the rounds and charges the cost meters stream."""

    def __init__(self):
        self.rounds = 0
        self.charges = 0

    def on_round_end(self, index, record, straggler_penalty_seconds=0.0) -> None:
        self.rounds += 1

    def on_charge(self, kind, round_index, fields) -> None:
        self.charges += 1


def _timed(recorder: SpanRecorder, name: str, function):
    enter, exit_ = recorder.enter, recorder.exit

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return function(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def _wrappers(recorder: SpanRecorder) -> list[tuple[object, str, object]]:
    """``(owner, attribute, wrapper)`` for every instrumented entry."""
    enter, exit_ = recorder.enter, recorder.exit
    counts, tagged = recorder.counts, recorder.tagged
    load_dataset = catalog.load_dataset
    run_algorithm = Platform.run_algorithm
    reference_output = OutputValidator.reference_output
    on_round_end = JsonlTraceWriter.on_round_end
    submit = ResultsDatabase.submit

    @functools.wraps(load_dataset)
    def timed_load_dataset(*args, **kwargs):
        enter("datasets")
        try:
            graph = load_dataset(*args, **kwargs)
        finally:
            exit_()
        counts["datasets.edges"] += graph.num_edges
        return graph

    @functools.wraps(run_algorithm)
    def timed_run_algorithm(self, handle, algorithm, params=None):
        enter("exec")
        try:
            return run_algorithm(self, handle, algorithm, params)
        finally:
            duration = exit_()
            tagged[f"exec.{self.name}.s"] += duration
            tagged[f"exec.{algorithm.value}.s"] += duration

    @functools.wraps(reference_output)
    def timed_reference_output(self, graph, algorithm, params):
        recorder.reference_keys.add((id(graph), algorithm, params))
        enter("validate.reference")
        try:
            return reference_output(self, graph, algorithm, params)
        finally:
            exit_()

    @functools.wraps(on_round_end)
    def counted_on_round_end(*args, **kwargs):
        counts["trace.spans"] += 1
        return on_round_end(*args, **kwargs)

    @functools.wraps(submit)
    def counted_submit(*args, **kwargs):
        rows = submit(*args, **kwargs)
        counts["resultsdb.rows"] += rows
        return rows

    wrappers: list[tuple[object, str, object]] = [
        (catalog, "load_dataset", timed_load_dataset),
        (Platform, "upload_graph",
         _timed(recorder, "etl", Platform.upload_graph)),
        (Platform, "run_algorithm", timed_run_algorithm),
        (OutputValidator, "validate",
         _timed(recorder, "validate", OutputValidator.validate)),
        (OutputValidator, "reference_output", timed_reference_output),
        (ReportGenerator, "write",
         _timed(recorder, "report", ReportGenerator.write)),
        (ResultsDatabase, "submit",
         _timed(recorder, "resultsdb", counted_submit)),
        (analysis, "analyze_tree",
         _timed(recorder, "analysis", analysis.analyze_tree)),
    ]
    wrappers += [
        (CostMeter, method, _timed(recorder, "cost", getattr(CostMeter, method)))
        for method in _COST_METHODS
    ]
    wrappers += [
        (
            JsonlTraceWriter,
            hook,
            _timed(
                recorder,
                "trace",
                counted_on_round_end
                if hook == "on_round_end"
                else getattr(JsonlTraceWriter, hook),
            ),
        )
        for hook in _TRACE_HOOKS
    ]
    return wrappers


@contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every instrumented entry point while the block runs."""
    saved = []
    try:
        for owner, attribute, wrapper in _wrappers(recorder):
            saved.append((owner, attribute, vars(owner).get(attribute)))
            setattr(owner, attribute, wrapper)
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


def accounting_gap(recorder: SpanRecorder, traced_wall: float) -> float:
    """Traced wall minus the self times of every span inside it."""
    return traced_wall - sum(
        recorder.self_time.get(name, 0.0) for name in WALL_LAYERS
    )


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    sink: CountingSink,
    cells: int = 0,
    trace_bytes: int = 0,
    rule_timings: dict[str, float] | None = None,
    analysis_files: int = 0,
    analysis_lines: int = 0,
) -> dict[str, float]:
    """Every per-layer metric of one traced pass except ``bench.*``,
    which compare two passes."""
    inclusive, self_time, calls = (
        recorder.inclusive, recorder.self_time, recorder.calls
    )
    rule_timings = rule_timings or {}
    module_rules = analysis.registered_rules()
    named = {
        "nondeterminism-flow": rule_timings.get("nondeterminism-flow", 0.0),
        "cost-protocol": rule_timings.get("cost-protocol", 0.0),
        "cost-units": sum(
            (seconds for rule, seconds in rule_timings.items()
             if rule.startswith("cost-units")),
            0.0,
        ),
        "module-rules": sum(
            (seconds for rule, seconds in rule_timings.items()
             if rule in module_rules),
            0.0,
        ),
    }
    metrics = {
        "datasets.load_s": inclusive["datasets"],
        "datasets.edges": recorder.counts["datasets.edges"],
        "etl.s": inclusive["etl"],
        "etl.calls": calls["etl"],
        "exec.s": inclusive["exec"],
        "exec.self_s": self_time["exec"],
        **{
            f"exec.{tag}.s": recorder.tagged[f"exec.{tag}.s"]
            for tag in PLATFORMS + ALGORITHMS
        },
        "exec.calls": calls["exec"],
        "exec.useful_ratio": _per(cells, calls["exec"]),
        "exec.rounds": sink.rounds,
        "exec.us_per_round": _per(inclusive["exec"], sink.rounds, 1e6),
        "cost.self_s": self_time["cost"],
        "cost.calls": calls["cost"],
        "cost.charges": sink.charges,
        "validate.s": inclusive["validate"],
        "validate.reference_s": inclusive["validate.reference"],
        "validate.calls": calls["validate"],
        "validate.useful_ratio": _per(
            len(recorder.reference_keys), calls["validate.reference"]
        ),
        "harness.self_s": self_time["harness"],
        "report.s": inclusive["report"],
        "resultsdb.s": inclusive["resultsdb"],
        "resultsdb.rows": recorder.counts["resultsdb.rows"],
        "trace.s": inclusive["trace"],
        "trace.spans": recorder.counts["trace.spans"],
        "trace.bytes": trace_bytes,
        "analysis.s": inclusive["analysis"],
        "analysis.files": analysis_files,
        "analysis.lines": analysis_lines,
        "analysis.us_per_line": _per(inclusive["analysis"], analysis_lines, 1e6),
        **{f"analysis.{family}.s": seconds for family, seconds in named.items()},
        "analysis.other_s": (
            inclusive["analysis"] - sum(named.values())
            if inclusive["analysis"]
            else 0.0
        ),
    }
    return metrics
