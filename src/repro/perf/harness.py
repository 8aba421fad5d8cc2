"""Kernel micro-benchmarks: bulk (numpy) versus scalar execution.

The harness is a *perf* tool, not a correctness tool — wall clocks are
its whole point, so the determinism lint's clock rules are suppressed
where the measurement happens. Correctness rides along anyway: every
timing also checks that the two paths produced the same simulated
seconds (platform kernels) or the identical artifact (micro kernels),
which is the bulk paths' exactness contract (see
``tests/test_bulk_equivalence.py``).

Two kernel kinds are tracked:

* ``platform`` kernels time ``run_algorithm`` with ``bulk=True``
  against ``bulk=False`` on one shared graph handle;
* ``micro`` kernels time data-plane primitives that have no platform
  driver — dataset generation (``datagen-rmat``) and graph
  deserialization (``graph-load``: mmap ``.npy`` load versus the
  pickle round-trip pool workers used to pay).

Every kernel reports best-of-repeats walls plus per-path mean/std
over the repeats, and a ``conservative_speedup`` —
``(scalar_mean - scalar_std) / (bulk_mean + bulk_std)`` — which the
floor checks in ``benchmarks/perf`` use so one lucky (or unlucky)
sample cannot flip a gate.
"""

from __future__ import annotations

import json
import pickle
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.cost import ClusterSpec
from repro.core.stats import RuntimeStats
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.generators import rmat_graph
from repro.graph.graph import Graph
from repro.platforms.gas.driver import GraphLabPlatform
from repro.platforms.mapreduce.driver import MapReducePlatform
from repro.platforms.pregel.driver import GiraphPlatform
from repro.platforms.rddgraph.driver import GraphXPlatform

__all__ = [
    "KernelSpec",
    "KernelTiming",
    "PerfReport",
    "default_kernels",
    "run_perf",
    "write_report",
]

#: Schema tag written into the JSON report.
SCHEMA = "graphalytics-perf/2"
#: Default report location, tracked at the repository root.
DEFAULT_OUTPUT = "BENCH_kernels.json"

#: Platform drivers that accept a ``bulk=`` toggle.
_PLATFORM_CLASSES = {
    "giraph": GiraphPlatform,
    "graphlab": GraphLabPlatform,
    "graphx": GraphXPlatform,
    "mapreduce": MapReducePlatform,
}


@dataclass(frozen=True)
class KernelSpec:
    """One timed kernel.

    ``kind="platform"`` names a (platform, algorithm) hot path;
    ``kind="micro"`` names a data-plane primitive dispatched by
    ``name`` inside :func:`run_perf` (``algorithm`` is unused).
    """

    name: str
    platform: str
    algorithm: Algorithm
    kind: str = "platform"


def default_kernels() -> list[KernelSpec]:
    """The tracked kernel set.

    BFS, CONN, PR and SSSP are the algorithms with bulk kernels on
    every converted platform (PR is the all-active stress case: every
    vertex sends every round, so the vectorized path earns the most;
    SSSP adds a weight to every message and re-activates vertices
    whose distance improves). STATS ships every adjacency list across
    every arc and counts triangles; giraph, graphx and mapreduce run
    it vectorized. The MapReduce kernels time the columnar
    ``RecordBatch`` executor against the per-record scalar engine. The
    micro kernels cover the rest of the data plane: vectorized R-MAT
    generation and mmap graph loading.
    """
    return [
        KernelSpec("pregel-bfs-frontier", "giraph", Algorithm.BFS),
        KernelSpec("pregel-conn-frontier", "giraph", Algorithm.CONN),
        KernelSpec("pregel-pagerank-allactive", "giraph", Algorithm.PR),
        KernelSpec("pregel-sssp-frontier", "giraph", Algorithm.SSSP),
        KernelSpec("gas-bfs-frontier", "graphlab", Algorithm.BFS),
        KernelSpec("gas-conn-frontier", "graphlab", Algorithm.CONN),
        KernelSpec("gas-pagerank-allactive", "graphlab", Algorithm.PR),
        KernelSpec("gas-sssp-frontier", "graphlab", Algorithm.SSSP),
        KernelSpec("graphx-bfs-frontier", "graphx", Algorithm.BFS),
        KernelSpec("graphx-conn-frontier", "graphx", Algorithm.CONN),
        KernelSpec("graphx-pagerank-allactive", "graphx", Algorithm.PR),
        KernelSpec("graphx-sssp-frontier", "graphx", Algorithm.SSSP),
        KernelSpec("mapreduce-bfs-shuffle", "mapreduce", Algorithm.BFS),
        KernelSpec("mapreduce-sssp-shuffle", "mapreduce", Algorithm.SSSP),
        KernelSpec("pregel-stats-triangles", "giraph", Algorithm.STATS),
        KernelSpec("graphx-stats-triangles", "graphx", Algorithm.STATS),
        KernelSpec("mapreduce-stats-triangles", "mapreduce", Algorithm.STATS),
        KernelSpec("datagen-rmat", "datagen", Algorithm.BFS, kind="micro"),
        KernelSpec("graph-load", "datasets", Algorithm.BFS, kind="micro"),
    ]


@dataclass
class KernelTiming:
    """Measured result of one kernel."""

    name: str
    platform: str
    algorithm: str
    #: Best-of-repeats wall seconds of the vectorized path.
    bulk_wall_seconds: float
    #: Best-of-repeats wall seconds of the scalar path.
    scalar_wall_seconds: float
    #: ``scalar_wall_seconds / bulk_wall_seconds`` (best-of walls).
    speedup: float
    #: Simulated seconds reported by the bulk path (0.0 for micro
    #: kernels, which have no cost model underneath).
    simulated_seconds: float
    #: Simulated seconds reported by the scalar path.
    scalar_simulated_seconds: float
    #: Whether the two paths agree exactly — equal simulated seconds
    #: for platform kernels, identical artifacts for micro kernels.
    simulated_match: bool
    #: Mean/std of the bulk walls over the repeats (std 0.0 when only
    #: one repeat was taken).
    bulk_wall_mean: float = 0.0
    bulk_wall_std: float = 0.0
    #: Mean/std of the scalar walls over the repeats.
    scalar_wall_mean: float = 0.0
    scalar_wall_std: float = 0.0
    #: ``(scalar_mean - scalar_std) / (bulk_mean + bulk_std)`` — the
    #: variance-discounted speedup the perf floors assert against.
    conservative_speedup: float = 0.0


@dataclass
class PerfReport:
    """One harness invocation: the graph, the knobs, the timings."""

    schema: str
    graph: dict
    repeats: int
    kernels: list[KernelTiming] = field(default_factory=list)

    def to_json(self) -> str:
        """Serialize for ``BENCH_kernels.json``."""
        return json.dumps(asdict(self), indent=2, sort_keys=False) + "\n"

    def lookup(self, name: str) -> KernelTiming | None:
        """The timing for one kernel name, if measured."""
        for timing in self.kernels:
            if timing.name == name:
                return timing
        return None


def _wall_stats(walls: list[float]) -> tuple[float, float, float]:
    """(best, mean, std) of a wall-clock sample list (std 0 for n=1)."""
    stats = RuntimeStats.from_samples(walls)
    std = stats.std if stats is not None and len(walls) > 1 else 0.0
    mean = stats.mean if stats is not None else 0.0
    return min(walls), mean, std


def _conservative_speedup(
    scalar_mean: float, scalar_std: float, bulk_mean: float, bulk_std: float
) -> float:
    """Variance-discounted speedup; 0 when the bands degenerate."""
    denominator = bulk_mean + bulk_std
    numerator = scalar_mean - scalar_std
    if denominator <= 0 or numerator <= 0:
        return 0.0
    return numerator / denominator


def _time_run(
    platform, handle, algorithm, params, repeats: int
) -> tuple[list[float], float]:
    """Wall seconds of every repeat plus the simulated seconds."""
    walls: list[float] = []
    simulated = 0.0
    for _repeat in range(max(repeats, 1)):
        start = time.perf_counter()
        run = platform.run_algorithm(handle, algorithm, params)
        walls.append(time.perf_counter() - start)
        simulated = run.simulated_seconds
    return walls, simulated


def _time_callable(
    fn: Callable[[], object], repeats: int, warmup: bool = False
) -> tuple[list[float], object]:
    """Wall seconds of every repeat plus the last call's result.

    ``warmup`` runs one untimed call first. The vectorized paths pay a
    one-off allocator/page-fault cost on their first multi-million-
    element run that the steady state never sees; without a warmup
    that outlier inflates the reported std and drags the conservative
    speedup below what the kernel actually sustains.
    """
    if warmup:
        fn()
    walls: list[float] = []
    result: object = None
    for _repeat in range(max(repeats, 1)):
        start = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - start)
    return walls, result


def _micro_timing(
    spec: KernelSpec,
    repeats: int,
    edge_factor: int,
    seed: int,
    datagen_scale: int,
    graph: Graph,
) -> KernelTiming:
    """Time one micro kernel (dispatched by name)."""
    if spec.name == "datagen-rmat":
        # Generation at a scale the per-edge builder can no longer
        # reach comfortably; the match check regenerates through both
        # paths and compares the graphs structurally.
        bulk_walls, bulk_graph = _time_callable(
            lambda: rmat_graph(
                scale=datagen_scale, edge_factor=edge_factor, seed=seed, bulk=True
            ),
            repeats,
            warmup=True,
        )
        scalar_walls, scalar_graph = _time_callable(
            lambda: rmat_graph(
                scale=datagen_scale, edge_factor=edge_factor, seed=seed, bulk=False
            ),
            repeats,
        )
        match = bulk_graph == scalar_graph
    elif spec.name == "graph-load":
        # mmap .npy load versus the pickle round-trip every pool
        # worker used to pay per (platform, graph) pair.
        with tempfile.TemporaryDirectory() as tmp:
            entry = Path(tmp) / "graph"
            graph.save(entry)
            bulk_walls, bulk_graph = _time_callable(
                lambda: Graph.load(entry, mmap=True), repeats, warmup=True
            )
            scalar_walls, scalar_graph = _time_callable(
                lambda: pickle.loads(pickle.dumps(graph)), repeats
            )
            match = bulk_graph == graph and scalar_graph == graph
    else:
        raise ValueError(f"unknown micro kernel {spec.name!r}")
    bulk_best, bulk_mean, bulk_std = _wall_stats(bulk_walls)
    scalar_best, scalar_mean, scalar_std = _wall_stats(scalar_walls)
    return KernelTiming(
        name=spec.name,
        platform=spec.platform,
        algorithm="",
        bulk_wall_seconds=bulk_best,
        scalar_wall_seconds=scalar_best,
        speedup=(scalar_best / bulk_best) if bulk_best > 0 else 0.0,
        simulated_seconds=0.0,
        scalar_simulated_seconds=0.0,
        simulated_match=bool(match),
        bulk_wall_mean=bulk_mean,
        bulk_wall_std=bulk_std,
        scalar_wall_mean=scalar_mean,
        scalar_wall_std=scalar_std,
        conservative_speedup=_conservative_speedup(
            scalar_mean, scalar_std, bulk_mean, bulk_std
        ),
    )


def run_perf(
    scale: int = 13,
    edge_factor: int = 16,
    seed: int = 1,
    repeats: int = 3,
    kernels: list[KernelSpec] | None = None,
    cluster: ClusterSpec | None = None,
    graph=None,
    datagen_scale: int | None = None,
) -> PerfReport:
    """Time every kernel on one R-MAT graph; returns the report.

    The defaults produce the tracked configuration: scale 13 with
    edge factor 16 is ~131k directed edges — the "~100k-edge graph"
    the speedup targets are stated against. Pass ``graph`` to reuse a
    cached instance; it must match the stated generation parameters,
    which are recorded verbatim in the report. SSSP kernels run on
    the graph weighted once with ``with_uniform_weights()``, as
    ``BenchmarkCore.run`` weights it. ``datagen_scale`` (default
    ``scale + 5``) is where the ``datagen-rmat`` micro kernel
    measures — five scales past the platform graph, the
    multi-million-edge regime the vectorized generator exists for.
    """
    kernels = default_kernels() if kernels is None else kernels
    cluster = cluster or ClusterSpec.paper_distributed()
    if datagen_scale is None:
        datagen_scale = scale + 5
    if graph is None:
        graph = rmat_graph(
            scale=scale, edge_factor=edge_factor, seed=seed, directed=True
        )
    graph_name = f"rmat-{scale}-{edge_factor}"
    report = PerfReport(
        schema=SCHEMA,
        graph={
            "generator": "rmat",
            "scale": scale,
            "edge_factor": edge_factor,
            "seed": seed,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "datagen_scale": datagen_scale,
        },
        repeats=max(repeats, 1),
    )
    params = AlgorithmParams()
    weighted: Graph | None = None
    # The handle does not depend on the bulk toggle, so both paths
    # share one ETL per kernel.
    for spec in kernels:
        if spec.kind == "micro":
            report.kernels.append(
                _micro_timing(
                    spec, repeats, edge_factor, seed, datagen_scale, graph
                )
            )
            continue
        platform_cls = _PLATFORM_CLASSES[spec.platform]
        bulk_platform = platform_cls(cluster, bulk=True)
        scalar_platform = platform_cls(cluster, bulk=False)
        kernel_graph = graph
        if spec.algorithm is Algorithm.SSSP:
            if weighted is None:
                weighted = graph.with_uniform_weights()
            kernel_graph = weighted
        handle = bulk_platform.upload_graph(graph_name, kernel_graph)
        bulk_walls, bulk_sim = _time_run(
            bulk_platform, handle, spec.algorithm, params, repeats
        )
        scalar_walls, scalar_sim = _time_run(
            scalar_platform, handle, spec.algorithm, params, repeats
        )
        bulk_best, bulk_mean, bulk_std = _wall_stats(bulk_walls)
        scalar_best, scalar_mean, scalar_std = _wall_stats(scalar_walls)
        report.kernels.append(
            KernelTiming(
                name=spec.name,
                platform=spec.platform,
                algorithm=spec.algorithm.value,
                bulk_wall_seconds=bulk_best,
                scalar_wall_seconds=scalar_best,
                speedup=(scalar_best / bulk_best) if bulk_best > 0 else 0.0,
                simulated_seconds=bulk_sim,
                scalar_simulated_seconds=scalar_sim,
                simulated_match=bulk_sim == scalar_sim,
                bulk_wall_mean=bulk_mean,
                bulk_wall_std=bulk_std,
                scalar_wall_mean=scalar_mean,
                scalar_wall_std=scalar_std,
                conservative_speedup=_conservative_speedup(
                    scalar_mean, scalar_std, bulk_mean, bulk_std
                ),
            )
        )
    return report


def write_report(report: PerfReport, path: str | Path = DEFAULT_OUTPUT) -> Path:
    """Write ``BENCH_kernels.json``; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report.to_json(), encoding="utf-8")
    return path
