"""Trace replay: reconstruct exact run profiles from JSONL traces.

A :class:`~repro.observability.sinks.JsonlTraceWriter` span carries the
complete :class:`~repro.core.cost.RoundRecord`, and JSON round-trips
Python floats exactly (``json.dumps``/``loads`` preserve ``repr``-level
precision, including ``Infinity``), so a trace re-aggregates to the
*bit-identical* :class:`~repro.core.cost.RunProfile` the meter
recorded. :func:`verify_replay` is the checker that asserts it — it
backs the ``selfcheck`` trace stage and the replay tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.cost import ClusterSpec, RoundRecord, RunProfile

__all__ = [
    "TraceAttempt",
    "read_trace",
    "parse_trace",
    "replay_trace",
    "profile_fingerprint",
    "verify_replay",
]


@dataclass
class TraceAttempt:
    """One ``run-begin`` .. ``run-end`` block of a trace file."""

    platform: str
    graph: str
    algorithm: str
    attempt: int
    cluster: ClusterSpec | None = None
    rounds: list[RoundRecord] = field(default_factory=list)
    faults: list[dict] = field(default_factory=list)
    #: ``success``, a failure reason, or ``incomplete`` for a
    #: truncated trace with no ``run-end`` event.
    status: str = "incomplete"
    startup_seconds: float = 0.0
    launches: int = 0
    peak_memory_per_worker: list[float] = field(default_factory=list)
    simulated_seconds: float | None = None

    @property
    def complete(self) -> bool:
        """Whether the attempt carries a full profile summary."""
        return self.simulated_seconds is not None

    def to_profile(self) -> RunProfile:
        """Re-aggregate this attempt's spans into a run profile."""
        if self.cluster is None:
            raise ValueError("trace attempt has no cluster specification")
        return RunProfile(
            cluster=self.cluster,
            rounds=list(self.rounds),
            peak_memory_per_worker=list(self.peak_memory_per_worker),
            startup_seconds=self.startup_seconds,
            launches=self.launches,
        )


def _record_from_span(span: dict) -> RoundRecord:
    # Hardware-layer fields use ``.get`` defaults so traces written
    # before the HardwareProfile refactor still replay. Before the
    # disk split all disk bytes were pooled, so a span without the
    # striped fields counts its round totals as striped.
    record = RoundRecord(
        name=span["name"],
        ops_per_worker=list(span["ops_per_worker"]),
        random_accesses_per_worker=list(span["random_accesses_per_worker"]),
        local_messages=span["local_messages"],
        remote_messages=span["remote_messages"],
        remote_bytes=span["remote_bytes"],
        disk_read_bytes=span["disk_read_bytes"],
        disk_write_bytes=span["disk_write_bytes"],
        striped_disk_read_bytes=span.get(
            "striped_disk_read_bytes", span["disk_read_bytes"]
        ),
        striped_disk_write_bytes=span.get(
            "striped_disk_write_bytes", span["disk_write_bytes"]
        ),
        disk_bytes_per_worker=list(span.get("disk_bytes_per_worker", [])),
        disk_random_bytes_per_worker=list(
            span.get("disk_random_bytes_per_worker", [])
        ),
        live_memory_bytes=span.get("live_memory_bytes", 0.0),
        active_vertices=span["active_vertices"],
        barrier=span["barrier"],
    )
    # Derived times are replayed, not recomputed: the trace is the
    # record of what the meter charged, straggler penalties included.
    record.compute_seconds = span["compute_seconds"]
    record.network_seconds = span["network_seconds"]
    record.network_transfer_seconds = span.get(
        "network_transfer_seconds", span["network_seconds"]
    )
    record.network_latency_seconds = span.get("network_latency_seconds", 0.0)
    record.network_queueing_seconds = span.get(
        "network_queueing_seconds", 0.0
    )
    record.disk_seconds = span["disk_seconds"]
    record.barrier_seconds = span["barrier_seconds"]
    return record


def read_trace(path: str | Path) -> list[dict]:
    """All events of a JSONL trace file, in stream order."""
    events = []
    with open(Path(path), encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            # Comment lines carry audit suppressions; they are not
            # events (the trace writer never emits them).
            if line and not line.startswith("#"):
                events.append(json.loads(line))
    return events


def parse_trace(events: list[dict]) -> list[TraceAttempt]:
    """Group a trace's event stream into per-attempt blocks."""
    attempts: list[TraceAttempt] = []
    current: TraceAttempt | None = None
    for event in events:
        kind = event.get("event")
        if kind == "run-begin":
            current = TraceAttempt(
                platform=event.get("platform", "?"),
                graph=event.get("graph", "?"),
                algorithm=event.get("algorithm", "?"),
                attempt=event.get("attempt", len(attempts) + 1),
                cluster=(
                    ClusterSpec.from_dict(event["cluster"])
                    if "cluster" in event
                    else None
                ),
            )
            attempts.append(current)
        elif current is None:
            raise ValueError(
                f"trace event before any run-begin: {event!r}"
            )
        elif kind == "round":
            current.rounds.append(_record_from_span(event))
        elif kind == "fault":
            current.faults.append(event)
        elif kind == "run-end":
            current.status = event.get("status", "unknown")
            if "simulated_seconds" in event:
                current.startup_seconds = event.get("startup_seconds", 0.0)
                current.launches = event.get("launches", 0)
                current.peak_memory_per_worker = list(
                    event.get("peak_memory_per_worker", [])
                )
                current.simulated_seconds = event["simulated_seconds"]
        # Fine-grained "charge" events are redundant with the spans
        # and intentionally ignored during replay.
    return attempts


def replay_trace(path: str | Path) -> RunProfile:
    """The profile of the last completed attempt in a trace file."""
    attempts = parse_trace(read_trace(path))
    for attempt in reversed(attempts):
        if attempt.complete:
            return attempt.to_profile()
    raise ValueError(f"{path}: trace contains no completed attempt")


def profile_fingerprint(profile: RunProfile) -> tuple:
    """A hashable fingerprint covering every recorded quantity.

    Two profiles fingerprint equal iff they are bit-identical: all
    per-round per-worker charges, all derived times, startup, and the
    memory peaks. Used by :func:`verify_replay` and by the
    differential tests pinning trace-on == trace-off behaviour.
    """
    return (
        profile.cluster.name,
        profile.startup_seconds,
        tuple(profile.peak_memory_per_worker),
        tuple(
            (
                r.name,
                tuple(r.ops_per_worker),
                tuple(r.random_accesses_per_worker),
                r.local_messages,
                r.remote_messages,
                r.remote_bytes,
                r.disk_read_bytes,
                r.disk_write_bytes,
                r.striped_disk_read_bytes,
                r.striped_disk_write_bytes,
                tuple(r.disk_bytes_per_worker),
                tuple(r.disk_random_bytes_per_worker),
                r.live_memory_bytes,
                r.active_vertices,
                r.barrier,
                r.compute_seconds,
                r.network_seconds,
                r.network_transfer_seconds,
                r.network_latency_seconds,
                r.network_queueing_seconds,
                r.disk_seconds,
                r.barrier_seconds,
            )
            for r in profile.rounds
        ),
    )


def verify_replay(path: str | Path, profile: RunProfile) -> list[str]:
    """Check that a trace re-aggregates to exactly ``profile``.

    Returns a list of human-readable mismatch descriptions; an empty
    list means the replayed profile is bit-identical to the recorded
    one (same rounds, same charges, same launches, same simulated
    seconds).
    """
    replayed = replay_trace(path)
    mismatches: list[str] = []
    if replayed.num_rounds != profile.num_rounds:
        mismatches.append(
            f"round count: trace has {replayed.num_rounds}, "
            f"profile has {profile.num_rounds}"
        )
    if profile_fingerprint(replayed) != profile_fingerprint(profile):
        for index, (got, want) in enumerate(
            zip(replayed.rounds, profile.rounds)
        ):
            if (got.name, got.seconds) != (want.name, want.seconds) or (
                got != want
            ):
                mismatches.append(
                    f"round {index} ({want.name}): replayed record differs"
                )
        if replayed.startup_seconds != profile.startup_seconds:
            mismatches.append("startup_seconds differs")
        if list(replayed.peak_memory_per_worker) != list(
            profile.peak_memory_per_worker
        ):
            mismatches.append("peak_memory_per_worker differs")
        if not mismatches:
            mismatches.append("profiles differ (fingerprint mismatch)")
    if replayed.launches != profile.launches:
        mismatches.append(
            f"launches: trace has {replayed.launches}, "
            f"profile has {profile.launches}"
        )
    if replayed.simulated_seconds != profile.simulated_seconds:
        mismatches.append(
            f"simulated_seconds: trace replays to "
            f"{replayed.simulated_seconds!r}, profile has "
            f"{profile.simulated_seconds!r}"
        )
    return mismatches
