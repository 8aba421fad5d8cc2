"""Cross-run analysis: compare two runs and flag regressions.

``graphalytics analyze OLD NEW`` loads per-run metrics from either
side — a JSONL trace, a results-database file, or an exported
submission document — matches runs by (platform, graph, algorithm),
and flags regressions in simulated time, network bytes, round count,
and the dominant choke point. This is the benchmark's answer to "did
my change make anything slower, chattier, or differently bottlenecked"
without eyeballing two reports side by side.

When both sides of a matched run carry repetition statistics
(``runtime_mean``/``runtime_std``/``num_repetitions`` columns written
by multi-repetition suites), the runtime comparison is CI-aware: a
slowdown only counts as a regression when the two 95% confidence
intervals do not overlap — a within-noise wobble passes, however it
compares to the percentage threshold. Runs without repetition stats
keep the one-sided relative-threshold gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.stats import RuntimeStats
from repro.observability.replay import parse_trace, read_trace

__all__ = ["RunMetrics", "Regression", "load_metrics", "compare_metrics"]

#: Metrics compared ratio-wise, with the human name used in findings.
_RATIO_METRICS = (
    ("simulated_seconds", "simulated time"),
    ("remote_bytes", "network bytes"),
    ("num_rounds", "rounds"),
)


@dataclass(frozen=True)
class RunMetrics:
    """The comparable summary of one benchmarked run."""

    platform: str
    graph: str
    algorithm: str
    status: str
    simulated_seconds: float | None = None
    remote_bytes: float | None = None
    num_rounds: int | None = None
    dominant: str | None = None
    #: Repetition statistics, when the source rows carry them.
    runtime_std: float | None = None
    num_repetitions: int | None = None

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.platform, self.graph, self.algorithm)

    def label(self) -> str:
        return f"{self.platform}/{self.graph}/{self.algorithm.lower()}"

    def runtime_stats(self) -> RuntimeStats | None:
        """Mean/std/CI95 of this run, when repetition stats exist."""
        if (
            self.simulated_seconds is None
            or self.runtime_std is None
            or self.num_repetitions is None
            or self.num_repetitions < 2
        ):
            return None
        return RuntimeStats.from_moments(
            self.simulated_seconds, self.runtime_std, self.num_repetitions
        )


@dataclass(frozen=True)
class Regression:
    """One flagged difference between matched runs."""

    key: tuple[str, str, str]
    metric: str
    old: object
    new: object
    detail: str

    def describe(self) -> str:
        platform, graph, algorithm = self.key
        return (
            f"{platform}/{graph}/{algorithm.lower()}: {self.detail}"
        )


def _metrics_from_row(row: dict) -> RunMetrics | None:
    try:
        return RunMetrics(
            platform=row["platform"],
            graph=row["graph"],
            algorithm=row["algorithm"],
            status=row.get("status", "unknown"),
            simulated_seconds=row.get("runtime_seconds"),
            remote_bytes=row.get("remote_bytes"),
            num_rounds=row.get("num_rounds"),
            dominant=row.get("dominant_chokepoint"),
            runtime_std=row.get("runtime_std"),
            num_repetitions=row.get("num_repetitions"),
        )
    except KeyError:
        return None


def _metrics_from_trace(events: list[dict]) -> list[RunMetrics]:
    metrics = []
    for attempt in parse_trace(events):
        if attempt.complete:
            profile = attempt.to_profile()
            metrics.append(
                RunMetrics(
                    platform=attempt.platform,
                    graph=attempt.graph,
                    algorithm=attempt.algorithm,
                    status=attempt.status,
                    simulated_seconds=profile.simulated_seconds,
                    remote_bytes=profile.total_remote_bytes,
                    num_rounds=profile.num_rounds,
                    dominant=profile.breakdown().dominant(),
                )
            )
        else:
            metrics.append(
                RunMetrics(
                    platform=attempt.platform,
                    graph=attempt.graph,
                    algorithm=attempt.algorithm,
                    status=attempt.status,
                )
            )
    return metrics


def load_metrics(path: str | Path) -> dict[tuple[str, str, str], RunMetrics]:
    """Per-run metrics from a trace, results-db, or submission file.

    The format is sniffed from the content: JSONL event streams carry
    ``"event"`` keys, submission documents carry the schema tag, and
    results-database files are JSON-lines of row dicts. Within one
    file, later entries for the same (platform, graph, algorithm)
    replace earlier ones — the latest measurement wins, matching how
    retries and re-submissions accumulate.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8").strip()
    if not text:
        return {}
    rows: list[RunMetrics | None]
    first = json.loads(text.splitlines()[0])
    if isinstance(first, dict) and "event" in first:
        rows = _metrics_from_trace(read_trace(path))
    elif isinstance(first, dict) and first.get("schema"):
        document = json.loads(text)
        rows = [_metrics_from_row(r) for r in document.get("results", [])]
    else:
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if isinstance(row, dict):
                rows.append(_metrics_from_row(row))
    metrics: dict[tuple[str, str, str], RunMetrics] = {}
    for row in rows:
        if row is not None:
            metrics[row.key] = row
    if not metrics:
        raise ValueError(
            f"{path}: no benchmark runs recognized (expected a JSONL "
            "trace, a results database, or a submission document)"
        )
    return metrics


def _compare_runtime_ci(
    key: tuple[str, str, str], before: RunMetrics, after: RunMetrics
):
    """CI-overlap runtime verdict for one matched run.

    Returns ``NotImplemented`` when either side lacks repetition
    statistics (the caller falls back to the ratio threshold), ``None``
    when the change is within noise, or the :class:`Regression` when
    the new mean is slower and the CI95 intervals are disjoint.
    """
    before_stats = before.runtime_stats()
    after_stats = after.runtime_stats()
    if before_stats is None or after_stats is None:
        return NotImplemented
    if after_stats.mean <= before_stats.mean or after_stats.overlaps(
        before_stats
    ):
        return None
    growth = (
        (after_stats.mean / before_stats.mean - 1.0) * 100
        if before_stats.mean
        else float("inf")
    )
    return Regression(
        key,
        "simulated_seconds",
        before_stats.mean,
        after_stats.mean,
        f"simulated time slowed {growth:.1f}% beyond CI95 noise "
        f"({before_stats.describe()} -> {after_stats.describe()})",
    )


def compare_metrics(
    old: dict[tuple[str, str, str], RunMetrics],
    new: dict[tuple[str, str, str], RunMetrics],
    threshold: float = 0.05,
) -> list[Regression]:
    """Regressions going from ``old`` to ``new``.

    A ratio metric regresses when it grows by more than ``threshold``
    (relative); a run regresses outright when it disappears, stops
    succeeding, or changes its dominant choke point. Improvements are
    never flagged — this is a one-sided gate.

    Runtime is special-cased: when both sides carry repetition
    statistics, the gate flags a slowdown only if the 95% confidence
    intervals are disjoint (the difference is outside measurement
    noise), replacing the bare relative threshold.
    """
    regressions: list[Regression] = []
    for key in sorted(old):
        before = old[key]
        after = new.get(key)
        if after is None:
            regressions.append(
                Regression(key, "presence", before.status, None,
                           "run missing from the new results")
            )
            continue
        if before.status == "success" and after.status != "success":
            regressions.append(
                Regression(key, "status", before.status, after.status,
                           f"was success, now {after.status}")
            )
            continue
        ci_regression = _compare_runtime_ci(key, before, after)
        if ci_regression is not NotImplemented:
            if ci_regression is not None:
                regressions.append(ci_regression)
        for metric, name in _RATIO_METRICS:
            if (
                metric == "simulated_seconds"
                and ci_regression is not NotImplemented
            ):
                # CI-aware runtime verdict already made above.
                continue
            b = getattr(before, metric)
            a = getattr(after, metric)
            if b is None or a is None:
                continue
            if a > b * (1.0 + threshold) and a - b > 1e-12:
                growth = (a / b - 1.0) * 100 if b else float("inf")
                regressions.append(
                    Regression(
                        key, metric, b, a,
                        f"{name} grew {growth:.1f}% ({b:g} -> {a:g})",
                    )
                )
        if (
            before.dominant is not None
            and after.dominant is not None
            and before.dominant != after.dominant
        ):
            regressions.append(
                Regression(
                    key, "dominant", before.dominant, after.dominant,
                    "dominant choke point moved "
                    f"{before.dominant} -> {after.dominant}",
                )
            )
    return regressions
