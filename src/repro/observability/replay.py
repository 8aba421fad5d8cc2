"""Trace replay: reconstruct exact run profiles from JSONL traces.

A :class:`~repro.observability.sinks.JsonlTraceWriter` span carries the
complete :class:`~repro.core.cost.RoundRecord`, and JSON round-trips
Python floats exactly (``json.dumps``/``loads`` preserve ``repr``-level
precision, including ``Infinity``), so a trace re-aggregates to the
*bit-identical* :class:`~repro.core.cost.RunProfile` the meter
recorded. :func:`verify_replay` is the checker that asserts it — it
backs the ``selfcheck`` trace stage and the replay tests.

Replay and :func:`profile_fingerprint` iterate
:data:`~repro.core.cost.ROUND_FIELDS`, the record's fields in
declaration order. The only per-field knowledge here is the table of
fields added after the first trace format, with the value an older
span implies for each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.cost import ROUND_FIELDS, ClusterSpec, RoundRecord, RunProfile

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


#: The round fields added after the first trace format, each with the
#: value a span written before it implies. Before the disk split all
#: disk bytes were pooled (striped), and before the network split all
#: network time was transfer.
_LATER_FIELDS: dict[str, Callable[[dict], Any]] = {
    "striped_disk_read_bytes": lambda span: span["disk_read_bytes"],
    "striped_disk_write_bytes": lambda span: span["disk_write_bytes"],
    "disk_bytes_per_worker": lambda span: [],
    "disk_random_bytes_per_worker": lambda span: [],
    "live_memory_bytes": lambda span: 0.0,
    "network_transfer_seconds": lambda span: span["network_seconds"],
    "network_latency_seconds": lambda span: 0.0,
    "network_queueing_seconds": lambda span: 0.0,
}


def _record_from_span(span: dict) -> RoundRecord:
    # Derived times are replayed, not recomputed: the trace is the
    # record of what the meter charged, straggler penalties included.
    # A span missing an original field raises KeyError.
    return RoundRecord(
        **{
            name: (
                _LATER_FIELDS[name](span)
                if name not in span and name in _LATER_FIELDS
                else span[name]
            )
            for name in ROUND_FIELDS
        }
    )


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
    Rounds contribute every :data:`~repro.core.cost.ROUND_FIELDS`
    value in declaration order; ``launches`` is left out, because
    adding it would move every pinned digest.
    """
    return (
        profile.cluster.name,
        profile.startup_seconds,
        tuple(profile.peak_memory_per_worker),
        tuple(
            tuple(_hashable(getattr(record, name)) for name in ROUND_FIELDS)
            for record in profile.rounds
        ),
    )


def _hashable(value: Any) -> Any:
    return tuple(value) if isinstance(value, list) else value


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
