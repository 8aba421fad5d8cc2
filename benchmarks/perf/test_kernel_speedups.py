"""Tracked perf bars for the vectorized kernel paths.

Runs the ``repro.perf`` harness on the tracked configuration — R-MAT
scale 13 with edge factor 16, ~131k directed edges (the "~100k-edge
graph" the targets are stated against), with the datagen micro kernel
at scale 18 (multi-million-edge regime) — refreshes the repository's
``BENCH_kernels.json``, and asserts the speedup floors:

* every converted platform's vectorized BFS frontier kernel must beat
  the scalar path by at least 3x;
* every converted platform's all-active PageRank kernel must beat the
  scalar path by at least 3x (PR sends a message per edge per round,
  so the bulk path has the most scalar overhead to amortize);
* every converted platform's weighted SSSP kernel must beat the
  scalar path by at least 3x, on the tracked graph weighted once with
  ``with_uniform_weights()``;
* the columnar MapReduce executor must beat the per-record engine by
  at least 3x on BFS and on SSSP (``mapreduce-bfs-shuffle``,
  ``mapreduce-sssp-shuffle``);
* the vectorized STATS paths of giraph, graphx and mapreduce must beat
  their scalar adjacency-list exchange by at least 3x
  (``*-stats-triangles``);
* the neo4j and virtuoso BFS and PageRank procedures over one CSR
  must beat their per-node procedures by at least 3x
  (``neo4j-*``, ``virtuoso-*``; run on their own single machine);
* vectorized R-MAT generation must beat the per-edge builder by at
  least 10x at scale 18, and mmap graph loading must beat the pickle
  round-trip by at least 3x;
* both paths must report identical simulated seconds (the
  accounting-equivalence contract; ``tests/test_bulk_equivalence.py``
  checks it structurally, this checks it end-to-end at scale).

Floors are asserted against ``conservative_speedup`` — the scalar
mean minus one std over the bulk mean plus one std — so a single
lucky sample cannot carry a gate.
"""

import json
from pathlib import Path

import pytest

from repro.perf import run_perf, write_report

REPO_ROOT = Path(__file__).resolve().parents[2]
TRACKED_REPORT = REPO_ROOT / "BENCH_kernels.json"

#: Kernels with a hard conservative-speedup floor.
SPEEDUP_FLOORS = {
    "pregel-bfs-frontier": 3.0,
    "gas-bfs-frontier": 3.0,
    "graphx-bfs-frontier": 3.0,
    "pregel-conn-frontier": 3.0,
    "gas-conn-frontier": 3.0,
    "graphx-conn-frontier": 3.0,
    "pregel-pagerank-allactive": 3.0,
    "gas-pagerank-allactive": 3.0,
    "graphx-pagerank-allactive": 3.0,
    "pregel-sssp-frontier": 3.0,
    "gas-sssp-frontier": 3.0,
    "graphx-sssp-frontier": 3.0,
    "mapreduce-bfs-shuffle": 3.0,
    "mapreduce-sssp-shuffle": 3.0,
    "pregel-stats-triangles": 3.0,
    "graphx-stats-triangles": 3.0,
    "mapreduce-stats-triangles": 3.0,
    "neo4j-bfs-traversal": 3.0,
    "neo4j-pagerank-allactive": 3.0,
    "virtuoso-bfs-traversal": 3.0,
    "virtuoso-pagerank-allactive": 3.0,
    "datagen-rmat": 10.0,
    "graph-load": 3.0,
}
#: Kernels with no cost model underneath (their ``simulated_seconds``
#: is 0 and ``simulated_match`` asserts artifact equality instead).
MICRO_KERNELS = ("datagen-rmat", "graph-load")


@pytest.fixture(scope="module")
def perf_report(graph_cache):
    """One harness run on the tracked graph, shared by every test."""
    graph = graph_cache("rmat", 13, 1, edge_factor=16, directed=True)
    report = run_perf(
        scale=13, edge_factor=16, seed=1, repeats=2, graph=graph,
        datagen_scale=18,
    )
    write_report(report, TRACKED_REPORT)
    return report


def test_graph_is_the_tracked_configuration(perf_report):
    assert perf_report.graph["edges"] >= 100_000
    assert perf_report.graph["datagen_scale"] == 18


@pytest.mark.parametrize("kernel", sorted(SPEEDUP_FLOORS))
def test_kernel_speedup_floor(perf_report, kernel):
    floor = SPEEDUP_FLOORS[kernel]
    timing = perf_report.lookup(kernel)
    assert timing is not None, f"kernel {kernel} not measured"
    assert timing.conservative_speedup >= floor, (
        f"{kernel}: conservative speedup only "
        f"{timing.conservative_speedup:.1f}x over scalar (floor {floor}x); "
        f"bulk={timing.bulk_wall_mean:.3f}s±{timing.bulk_wall_std:.3f} "
        f"scalar={timing.scalar_wall_mean:.3f}s±{timing.scalar_wall_std:.3f}"
    )


def test_simulated_seconds_identical_on_every_kernel(perf_report):
    mismatched = [t.name for t in perf_report.kernels if not t.simulated_match]
    assert mismatched == []


def test_variance_columns_present(perf_report):
    for timing in perf_report.kernels:
        assert timing.bulk_wall_mean > 0.0
        assert timing.scalar_wall_mean > 0.0
        assert timing.bulk_wall_std >= 0.0
        assert timing.scalar_wall_std >= 0.0
        assert timing.conservative_speedup > 0.0


def test_tracked_report_written(perf_report):
    payload = json.loads(TRACKED_REPORT.read_text(encoding="utf-8"))
    assert payload["schema"] == "graphalytics-perf/2"
    assert payload["graph"]["edges"] == perf_report.graph["edges"]
    for kernel in payload["kernels"]:
        assert kernel["bulk_wall_seconds"] > 0
        assert kernel["scalar_wall_seconds"] > 0
        if kernel["name"] in MICRO_KERNELS:
            assert kernel["simulated_seconds"] == 0.0
        else:
            assert kernel["simulated_seconds"] > 0
        assert kernel["simulated_match"] is True
