"""The Results database (paper Figure 2).

"The design also includes a database for Results that is hosted by us
online and accepts results submissions from Graphalytics users." This
reproduction implements the database as a local JSON-lines store with
the submission/query API such a service exposes; the online hosting is
out of scope (it is infrastructure, not benchmark behaviour).
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.core.benchmark import BenchmarkResult, BenchmarkSuiteResult
from repro.core.chokepoints import analyze_profile
from repro.core.stats import RuntimeStats

__all__ = ["ResultsDatabase", "StoredResult"]


@dataclass(frozen=True)
class StoredResult:
    """One submitted measurement (the database's row format).

    The choke-point columns (``dominant_chokepoint`` through
    ``max_skew``) and the repetition-statistics columns
    (``runtime_mean`` through ``num_repetitions``) were added after
    the first schema; they default to ``None`` so rows written by
    older versions still parse.
    """

    submitted_at: float
    platform: str
    graph: str
    algorithm: str
    status: str
    runtime_seconds: float | None
    kteps: float | None
    failure_reason: str | None
    cluster: str | None
    # Per-cell choke-point indicators (paper Section 2.1).
    dominant_chokepoint: str | None = None
    num_rounds: int | None = None
    remote_bytes: float | None = None
    max_skew: float | None = None
    # Repetition statistics (the SoK statistical-rigor columns):
    # ``runtime_seconds`` stays the headline mean for compatibility;
    # these columns carry the spread behind it.
    runtime_mean: float | None = None
    runtime_std: float | None = None
    num_repetitions: int | None = None

    def runtime_stats(self) -> RuntimeStats | None:
        """The row's repetition statistics, when recorded."""
        if (
            self.runtime_mean is None
            or self.runtime_std is None
            or self.num_repetitions is None
            or self.num_repetitions < 1
        ):
            return None
        return RuntimeStats.from_moments(
            self.runtime_mean, self.runtime_std, self.num_repetitions
        )

    @classmethod
    def from_result(cls, result: BenchmarkResult) -> "StoredResult":
        """Convert a benchmark result into a database row."""
        cluster = None
        chokepoints = result.chokepoints
        num_rounds = None
        remote_bytes = None
        if result.run is not None:
            profile = result.run.profile
            cluster = profile.cluster.name
            num_rounds = profile.num_rounds
            remote_bytes = profile.total_remote_bytes
            if chokepoints is None:
                chokepoints = analyze_profile(profile)
        stats = result.runtime_stats
        return cls(
            # Real submission timestamp of the archived result row.
            submitted_at=time.time(),  # quality: ignore[determinism]
            platform=result.platform,
            graph=result.graph_name,
            algorithm=result.algorithm.value,
            status=result.status,
            runtime_seconds=result.runtime_seconds,
            kteps=result.kteps,
            failure_reason=result.failure_reason,
            cluster=cluster,
            dominant_chokepoint=(
                chokepoints.breakdown.dominant()
                if chokepoints is not None
                else None
            ),
            num_rounds=num_rounds,
            remote_bytes=remote_bytes,
            max_skew=(
                chokepoints.max_skew if chokepoints is not None else None
            ),
            runtime_mean=stats.mean if stats is not None else None,
            runtime_std=stats.std if stats is not None else None,
            num_repetitions=stats.n if stats is not None else None,
        )


class ResultsDatabase:
    """Append-only JSON-lines store of benchmark results."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Malformed rows skipped by the most recent :meth:`query`.
        self.skipped_rows = 0

    def submit(self, suite: BenchmarkSuiteResult) -> int:
        """Append every result of a suite; returns the rows written."""
        written = 0
        with open(self.path, "a", encoding="utf-8") as handle:
            for result in suite.results:
                row = asdict(StoredResult.from_result(result))
                handle.write(json.dumps(row) + "\n")
                written += 1
        return written

    def query(
        self,
        platform: str | None = None,
        graph: str | None = None,
        algorithm: str | None = None,
        status: str | None = None,
    ) -> list[StoredResult]:
        """All stored rows matching the given filters.

        Rows that do not parse into :class:`StoredResult` — unknown
        keys from a *newer* schema, missing required keys from a
        truncated write, or invalid JSON — are skipped, counted in
        :attr:`skipped_rows`, and reported once per query as a
        ``UserWarning``; one bad row never poisons the archive.
        """
        self.skipped_rows = 0
        if not self.path.exists():
            return []
        rows: list[StoredResult] = []
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = StoredResult(**json.loads(line))
                except (TypeError, ValueError):
                    self.skipped_rows += 1
                    continue
                if platform is not None and record.platform != platform:
                    continue
                if graph is not None and record.graph != graph:
                    continue
                if algorithm is not None and record.algorithm != algorithm:
                    continue
                if status is not None and record.status != status:
                    continue
                rows.append(record)
        if self.skipped_rows:
            warnings.warn(
                f"{self.path}: skipped {self.skipped_rows} malformed "
                "result row(s) from an incompatible schema",
                stacklevel=2,
            )
        return rows

    def best_runtime(
        self, platform: str, graph: str, algorithm: str
    ) -> float | None:
        """Fastest successful runtime recorded for a combination."""
        runtimes = [
            row.runtime_seconds
            for row in self.query(platform, graph, algorithm, status="success")
            if row.runtime_seconds is not None
        ]
        return min(runtimes, default=None)

    def leaderboard(self, graph: str, algorithm: str) -> list[tuple[str, float]]:
        """Platforms ranked by best runtime for one workload.

        The paper's Results database "hosted by us online" exists to
        compare submissions; this is that comparison, over everything
        submitted locally.
        """
        best: dict[str, float] = {}
        for row in self.query(graph=graph, algorithm=algorithm, status="success"):
            if row.runtime_seconds is None:
                continue
            current = best.get(row.platform)
            if current is None or row.runtime_seconds < current:
                best[row.platform] = row.runtime_seconds
        return sorted(best.items(), key=lambda item: item[1])

    # -- submissions ------------------------------------------------------

    #: Version tag of the submission document format.
    SUBMISSION_SCHEMA = "graphalytics-results-v1"

    @staticmethod
    def export_submission(
        suite: BenchmarkSuiteResult, system_info: dict | None = None
    ) -> dict:
        """Package a suite as a submission document.

        This is the payload a user would upload to the online results
        service: schema-versioned, with the system description the
        paper's reports require ("includes all relevant configuration
        information").
        """
        return {
            "schema": ResultsDatabase.SUBMISSION_SCHEMA,
            "system": dict(system_info or {}),
            "results": [
                asdict(StoredResult.from_result(result))
                for result in suite.results
            ],
        }

    def import_submission(self, document: dict) -> int:
        """Validate and store a submission document; returns rows added."""
        if document.get("schema") != self.SUBMISSION_SCHEMA:
            raise ValueError(
                f"unsupported submission schema {document.get('schema')!r}; "
                f"expected {self.SUBMISSION_SCHEMA!r}"
            )
        rows = document.get("results")
        if not isinstance(rows, list):
            raise ValueError("submission has no 'results' list")
        parsed = []
        for index, row in enumerate(rows):
            try:
                parsed.append(StoredResult(**row))
            except TypeError as exc:
                raise ValueError(f"results[{index}] is malformed: {exc}") from exc
        with open(self.path, "a", encoding="utf-8") as handle:
            for record in parsed:
                handle.write(json.dumps(asdict(record)) + "\n")
        return len(parsed)
