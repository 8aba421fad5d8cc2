"""Trace sinks: structured observers of the cost-accounting stream.

The :class:`~repro.core.cost.CostMeter` emits events — round
begin/end, message/shuffle/disk/memory charges, fault annotations —
to the attached sinks, charge events only to the sinks that read them
(:attr:`TraceSink.reads_charges`), and the platform driver API
brackets each algorithm execution with run begin/end events. Sinks
observe, never mutate: profiles recorded with a sink attached are
bit-identical to profiles recorded without one (the differential
tests in ``tests/observability/`` hold every platform to that), and an
emission site no sink reads is skipped entirely.

This is the per-stage instrumentation style of Spark's task-metrics
listener bus, scaled to the simulation: the existing
``SystemMonitor``/CSV path is rebased on :class:`MonitorSink`, the
JSONL traces of :class:`JsonlTraceWriter` replay to exact
:class:`~repro.core.cost.RunProfile` objects (see
:mod:`repro.observability.replay`), and :class:`InMemoryAggregator`
keeps cheap running totals for tests and live dashboards. A trace's
round span is :class:`~repro.core.cost.RoundRecord`'s fields in
declaration order (``ROUND_FIELDS``), the order replay reads and
``profile_fingerprint`` hashes, so this module lists no round field.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.cost import ROUND_FIELDS, ClusterSpec, RoundRecord, RunProfile
from repro.core.monitor import UtilizationSample, sample_from_record
from repro.hardware.models import HardwareProfile

__all__ = [
    "TraceSink",
    "JsonlTraceWriter",
    "InMemoryAggregator",
    "MonitorSink",
]


class TraceSink:
    """No-op base class defining the observability event hooks.

    Subclasses override the events they care about. All hooks are
    called synchronously from the charge path, so implementations must
    be cheap and must never raise or mutate their arguments — the
    zero-overhead contract covers "no sink attached"; an attached sink
    is trusted to stay out of the way.
    """

    #: Whether the sink reads charge events. A meter builds charge
    #: events only for the sinks that read them; a sink whose
    #: :meth:`on_charge` ignores every event sets this false.
    reads_charges = True

    def on_run_begin(
        self, platform: str, graph: str, algorithm: str, spec: ClusterSpec
    ) -> None:
        """One algorithm execution (attempt) starts."""

    def on_round_begin(self, index: int, name: str, barrier: bool) -> None:
        """The meter opened round ``index``."""

    def on_charge(self, kind: str, round_index: int, fields: dict) -> None:
        """A message/shuffle/disk/memory/startup charge landed.

        ``kind`` is one of ``message``, ``shuffle``, ``disk-read``,
        ``disk-write``, ``disk-random``, ``memory``, ``startup``;
        ``fields`` carries the kind-specific payload. Per-compute
        charges are intentionally not streamed — round-end spans carry
        the per-worker breakdown. Called only when
        :attr:`reads_charges` is true.
        """

    def on_round_end(
        self, index: int, record: RoundRecord,
        straggler_penalty_seconds: float = 0.0,
    ) -> None:
        """The meter closed round ``index``; ``record`` is final."""

    def on_fault(self, kind: str, round_index: int, detail: str) -> None:
        """An injected fault or budget violation fired."""

    def on_run_end(self, profile: RunProfile | None, status: str) -> None:
        """The execution finished; ``profile`` is ``None`` on failure."""


class JsonlTraceWriter(TraceSink):
    """Structured JSONL trace: one span per round, fault-annotated.

    Event lines, in stream order per attempt::

        {"event": "run-begin", "attempt": 1, "platform": ..., "cluster": {...}}
        {"event": "charge", ...}            # only with charges=True
        {"event": "round", "index": 0, "name": ..., <charge breakdown>}
        {"event": "fault", "kind": ..., "round": ..., "detail": ...}
        {"event": "run-end", "status": "success", <profile summary>}

    Spans carry every :class:`RoundRecord` field in declaration order
    — per-worker ops and random accesses, message/byte/disk totals,
    and the derived seconds — so
    :func:`repro.observability.replay.replay_trace` reconstructs the
    exact recorded :class:`RunProfile` from the trace alone.
    Retried attempts append further ``run-begin`` blocks to the same
    file. The file is created lazily on the first event; traces are
    fully deterministic (no wall-clock timestamps: the only clock in a
    trace is the simulated one).
    """

    def __init__(self, path: str | Path, charges: bool = False):
        self.path = Path(path)
        #: Stream fine-grained charge events too (large traces).
        self.reads_charges = charges
        self.attempt = 0
        self._handle = None

    # -- plumbing ------------------------------------------------------

    def _write(self, event: dict) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8")
        self._handle.write(json.dumps(event) + "\n")

    def close(self) -> None:
        """Flush and close the trace file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- events --------------------------------------------------------

    def on_run_begin(self, platform, graph, algorithm, spec) -> None:
        self.attempt += 1
        self._write(
            {
                "event": "run-begin",
                "attempt": self.attempt,
                "platform": platform,
                "graph": graph,
                "algorithm": algorithm,
                "cluster": spec.to_dict(),
            }
        )

    def on_charge(self, kind, round_index, fields) -> None:
        if self.reads_charges:
            self._write(
                {"event": "charge", "kind": kind, "round": round_index, **fields}
            )

    def on_round_end(self, index, record, straggler_penalty_seconds=0.0) -> None:
        span = {"event": "round", "index": index}
        for name in ROUND_FIELDS:
            span[name] = getattr(record, name)
        if straggler_penalty_seconds:
            span["straggler_penalty_seconds"] = straggler_penalty_seconds
        self._write(span)

    def on_fault(self, kind, round_index, detail) -> None:
        self._write(
            {"event": "fault", "kind": kind, "round": round_index,
             "detail": detail}
        )

    def on_run_end(self, profile, status) -> None:
        event = {"event": "run-end", "status": status}
        if profile is not None:
            event["launches"] = profile.launches
            event["startup_seconds"] = profile.startup_seconds
            event["peak_memory_per_worker"] = list(
                profile.peak_memory_per_worker
            )
            event["simulated_seconds"] = profile.simulated_seconds
        self._write(event)


class InMemoryAggregator(TraceSink):
    """Cheap running totals over the event stream (no I/O).

    Useful for tests and for surfacing live counters without paying
    for a trace file: counts rounds, charges by kind, bytes moved,
    faults by kind, and completed/failed runs.
    """

    def __init__(self):
        self.runs_started = 0
        self.runs_finished = 0
        self.runs_failed = 0
        self.rounds = 0
        self.charge_counts: dict[str, int] = {}
        self.remote_bytes = 0.0
        self.disk_bytes = 0.0
        self.messages = 0
        self.faults: dict[str, int] = {}
        self.simulated_seconds = 0.0
        self.straggler_penalty_seconds = 0.0

    def on_run_begin(self, platform, graph, algorithm, spec) -> None:
        self.runs_started += 1

    def on_charge(self, kind, round_index, fields) -> None:
        self.charge_counts[kind] = self.charge_counts.get(kind, 0) + 1

    def on_round_end(self, index, record, straggler_penalty_seconds=0.0) -> None:
        self.rounds += 1
        self.remote_bytes += record.remote_bytes
        self.disk_bytes += record.disk_read_bytes + record.disk_write_bytes
        self.messages += record.local_messages + record.remote_messages
        self.simulated_seconds += record.seconds
        self.straggler_penalty_seconds += straggler_penalty_seconds

    def on_fault(self, kind, round_index, detail) -> None:
        self.faults[kind] = self.faults.get(kind, 0) + 1

    def on_run_end(self, profile, status) -> None:
        if status == "success":
            self.runs_finished += 1
        else:
            self.runs_failed += 1

    def summary(self) -> dict:
        """The aggregate view as one plain dict."""
        return {
            "runs_started": self.runs_started,
            "runs_finished": self.runs_finished,
            "runs_failed": self.runs_failed,
            "rounds": self.rounds,
            "messages": self.messages,
            "remote_bytes": self.remote_bytes,
            "disk_bytes": self.disk_bytes,
            "charge_counts": dict(self.charge_counts),
            "faults": dict(self.faults),
            "simulated_seconds": self.simulated_seconds,
        }


class MonitorSink(TraceSink):
    """Streams the System Monitor's utilization series from spans.

    The sample construction is shared with the profile-based path
    (:func:`repro.core.monitor.sample_from_record`), so a live tracing
    run and an after-the-fact ``samples_from_profile`` call produce
    identical series — the CSV export sits on top of either. Samples
    split each round under the hardware that costed it: the
    ``run-begin`` cluster, or the replayed profile's cluster.
    """

    reads_charges = False

    def __init__(self):
        self.samples: list[UtilizationSample] = []
        self.hardware: HardwareProfile | None = None
        self._clock = 0.0

    def on_round_end(self, index, record, straggler_penalty_seconds=0.0) -> None:
        self._clock += record.seconds
        self.samples.append(
            sample_from_record(record, self._clock, self.hardware)
        )

    def on_run_begin(self, platform, graph, algorithm, spec) -> None:
        # Each execution gets its own simulated clock.
        self.samples = []
        self.hardware = spec.hardware
        self._clock = 0.0

    def replay_profile(self, profile: RunProfile) -> list[UtilizationSample]:
        """Feed a recorded profile through the same round hook."""
        self.hardware = profile.cluster.hardware
        for index, record in enumerate(profile.rounds):
            self.on_round_end(index, record)
        return self.samples
