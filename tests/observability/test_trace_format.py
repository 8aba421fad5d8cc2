"""The on-disk trace format, pinned by two committed traces.

``fixtures/`` holds the traces ``graphalytics run --trace`` writes for
giraph and mapreduce BFS on ``graph500-7``; the mapreduce trace covers
striped disk bytes and four job launches. A fresh run of each cell
must replay from its fixture to the same ``profile_fingerprint`` and
write the same ``run-begin`` and ``round`` lines, byte for byte. The
``run-end`` line is left out of the byte comparison: its
``simulated_seconds`` is a builtin float ``sum``, which Python 3.12
folds differently from 3.11.

Regenerate the fixtures (only for an intended change to the trace
format) with
``PYTHONPATH=src python -m tests.observability.test_trace_format``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.benchmark import BenchmarkCore
from repro.core.cost import ClusterSpec, RunProfile
from repro.core.workload import Algorithm, BenchmarkRunSpec
from repro.datasets import load_dataset
from repro.observability import profile_fingerprint, replay_trace
from repro.platforms.registry import create_platform_fleet

FIXTURES = Path(__file__).with_name("fixtures")
GRAPH = "graph500-7"
PLATFORMS = ("giraph", "mapreduce")


def trace_cell(platform_name: str, trace_dir: Path) -> tuple[Path, RunProfile]:
    """Run one BFS cell with tracing on; its trace path and profile."""
    platforms = create_platform_fleet(
        ClusterSpec.paper_distributed(), names=[platform_name]
    )
    core = BenchmarkCore(
        platforms, {GRAPH: load_dataset(GRAPH)}, trace_dir=trace_dir
    )
    (result,) = core.run(BenchmarkRunSpec(algorithms=[Algorithm.BFS])).results
    assert result.succeeded, result.failure_reason
    return Path(result.trace_path), result.run.profile


def _format_lines(path: Path) -> list[str]:
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if json.loads(line)["event"] != "run-end"
    ]


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_fixture_pins_the_trace_format(platform_name, tmp_path):
    path, profile = trace_cell(platform_name, tmp_path)
    fixture = FIXTURES / path.name
    assert profile_fingerprint(replay_trace(fixture)) == profile_fingerprint(
        profile
    )
    assert _format_lines(path) == _format_lines(fixture)


if __name__ == "__main__":
    for name in PLATFORMS:
        trace_cell(name, FIXTURES)
