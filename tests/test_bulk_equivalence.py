"""Exact scalar/bulk equivalence across every converted platform.

The vectorized bulk paths (``pregel/bulk.py``, ``gas/bulk.py``,
``rddgraph/bulk.py``, and the batched MapReduce shuffle accounting)
promise *bit-identical* results to the scalar per-record paths — not
approximately equal. The charges they batch are all integer-valued
floats, and float64 addition of integers below 2**53 is exact, so one
vector charge of pre-summed per-worker totals equals the scalar call
sequence bit for bit (see ``CostMeter.charge_worker_compute``).

These tests hold every platform to that contract on *every*
algorithm, discovered from the ``Algorithm`` enum rather than
hand-listed — so an algorithm that gains a bulk kernel (BFS, CONN,
PR, SSSP and STATS have them today) is automatically held to the bar, and
an algorithm without one must still produce identical results and
profiles by running the same scalar path under both flags. The sweep
covers a directed graph, an undirected graph, and a graph with sparse
vertex ids plus an isolated vertex, on the 10-worker cluster; one
graph also runs on the single-node cluster, where every message is
local and there is one worker pair. "Identical" means the algorithm
outputs and the profile's ``profile_fingerprint`` (every recorded
round field, startup and the memory peaks — the bar the pinned
digests use) plus ``simulated_seconds``, ``total_messages`` and
``launches`` all compare equal with ``==``. The sweep's clusters have
ample memory; STATS, the algorithm whose message buffers and cached
lists grow with the squared degrees, also runs on budgets that break,
where both paths must fail with the same worker, bytes and round, and
so do giraph's BFS, CONN, PR and SSSP, whose queued message buffers
grow with the frontier.
Three Pregel cases run the engine directly: SSSP under adaptive
central supersteps, STATS with central supersteps, and a CONN program
whose combiner is switched off.
"""

import pytest

from repro.core.cost import ClusterSpec
from repro.core.errors import SimulatedOOM
from repro.core.workload import Algorithm, AlgorithmParams
from repro.datasets import catalog
from repro.graph.generators import rmat_graph
from repro.graph.graph import Graph
from repro.observability import profile_fingerprint
from repro.platforms.gas.driver import GraphLabPlatform
from repro.platforms.mapreduce.driver import MapReducePlatform
from repro.platforms.pregel.driver import GiraphPlatform
from repro.platforms.pregel.engine import PregelEngine
from repro.platforms.pregel.programs import (
    ConnProgram,
    SSSPProgram,
    StatsProgram,
)
from repro.platforms.rddgraph.driver import GraphXPlatform
from repro.robustness.memory import apply_mem_limit

#: Every platform with a bulk toggle.
CONVERTED_PLATFORMS = [
    GiraphPlatform,
    GraphLabPlatform,
    GraphXPlatform,
    MapReducePlatform,
]

#: Every algorithm, auto-discovered from the enum: new algorithms (and
#: new bulk kernels) join the equivalence sweep without editing this
#: file.
BULK_ALGORITHMS = list(Algorithm)


def _sparse_id_graph() -> Graph:
    """Non-contiguous vertex ids, an isolated vertex, two components."""
    return Graph.from_edges(
        [(10, 20), (20, 400), (400, 10), (7, 9)],
        vertices=[10, 20, 400, 7, 9, 100_000],
        directed=False,
    )


GRAPHS = {
    "rmat-directed": lambda: rmat_graph(
        scale=7, edge_factor=8, seed=42, directed=True
    ),
    "rmat-undirected": lambda: rmat_graph(
        scale=6, edge_factor=8, seed=7, directed=False
    ),
    "sparse-ids": _sparse_id_graph,
}


def profile_key(profile):
    """Everything a profile says, minus nothing: the exactness bar."""
    return (
        profile_fingerprint(profile),
        profile.simulated_seconds,
        profile.total_messages,
        profile.launches,
    )


def _run(
    platform_cls,
    bulk: bool,
    graph: Graph,
    algorithm: Algorithm,
    cluster: ClusterSpec | None = None,
):
    if algorithm is Algorithm.SSSP and not graph.is_weighted:
        graph = graph.with_uniform_weights(seed=3)
    platform = platform_cls(cluster or ClusterSpec.paper_distributed(), bulk=bulk)
    handle = platform.upload_graph("equivalence", graph)
    run = platform.run_algorithm(handle, algorithm, AlgorithmParams())
    return run.output, profile_key(run.profile)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("algorithm", BULK_ALGORITHMS, ids=lambda a: a.value)
@pytest.mark.parametrize(
    "platform_cls", CONVERTED_PLATFORMS, ids=lambda cls: cls.name
)
def test_bulk_path_is_bit_identical(platform_cls, algorithm, graph_name):
    graph = GRAPHS[graph_name]()
    bulk_output, bulk_profile = _run(platform_cls, True, graph, algorithm)
    scalar_output, scalar_profile = _run(platform_cls, False, graph, algorithm)
    assert bulk_output == scalar_output
    assert bulk_profile == scalar_profile


@pytest.mark.parametrize("algorithm", BULK_ALGORITHMS, ids=lambda a: a.value)
@pytest.mark.parametrize(
    "platform_cls", CONVERTED_PLATFORMS, ids=lambda cls: cls.name
)
def test_single_node_bulk_path_is_bit_identical(platform_cls, algorithm):
    graph = GRAPHS["rmat-directed"]()
    single = ClusterSpec.paper_single_node()
    bulk_output, bulk_profile = _run(platform_cls, True, graph, algorithm, single)
    scalar_output, scalar_profile = _run(
        platform_cls, False, graph, algorithm, single
    )
    assert bulk_output == scalar_output
    assert bulk_profile == scalar_profile


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_mapreduce_bulk_covers_every_job(algorithm):
    """Every job chain in ``jobs.py`` is bulk/scalar-identical.

    BFS, CONN, SSSP and the STATS triangle job exercise the columnar
    ``RecordBatch`` executor; the remaining jobs (CD, EVO, the STATS
    aggregation, and the PR/LCC chains) stay on scalar records under
    ``bulk=True`` (their jobs carry non-columnar values) but still
    flow through the batched shuffle accounting —
    either way the outputs and full cost profiles must match the
    ``bulk=False`` run exactly.
    """
    graph = GRAPHS["rmat-undirected"]()
    bulk_output, bulk_profile = _run(MapReducePlatform, True, graph, algorithm)
    scalar_output, scalar_profile = _run(
        MapReducePlatform, False, graph, algorithm
    )
    assert bulk_output == scalar_output
    assert bulk_profile == scalar_profile


#: The engines with a bulk STATS path.
STATS_PLATFORMS = [GiraphPlatform, GraphXPlatform, MapReducePlatform]


def _oom_graph(algorithm: Algorithm) -> Graph:
    graph = GRAPHS["rmat-directed"]()
    if algorithm is Algorithm.SSSP:
        graph = graph.with_uniform_weights(seed=3)
    return graph


def _oom_outcome(platform_cls, algorithm, bulk: bool, memory_bytes: float):
    """The run's output and profile, or the failure and its exact cause."""
    platform = apply_mem_limit(
        platform_cls(ClusterSpec.paper_distributed(), bulk=bulk), memory_bytes
    )
    handle = platform.upload_graph("equivalence", _oom_graph(algorithm))
    try:
        run = platform.run_algorithm(handle, algorithm, AlgorithmParams())
    except SimulatedOOM as failure:
        cause = failure.__cause__
        return str(failure), cause.worker, cause.used, cause.round_name
    return run.output, profile_key(run.profile)


def _oom_outcomes(platform_cls, algorithm, fraction):
    """Bulk and scalar outcomes on ``fraction`` of the scalar run's peak."""
    ample = platform_cls(ClusterSpec.paper_distributed(), bulk=False)
    handle = ample.upload_graph("equivalence", _oom_graph(algorithm))
    peak = ample.run_algorithm(handle, algorithm).profile.peak_memory
    return (
        _oom_outcome(platform_cls, algorithm, True, fraction * peak),
        _oom_outcome(platform_cls, algorithm, False, fraction * peak),
    )


@pytest.mark.parametrize("fraction", [0.5, 0.9, 0.99])
@pytest.mark.parametrize(
    "platform_cls", STATS_PLATFORMS, ids=lambda cls: cls.name
)
def test_stats_out_of_memory_is_bit_identical(platform_cls, fraction):
    """A budget below the run's peak fails both paths at the same charge.

    MapReduce streams through a sort buffer sized from the budget, so
    it completes on every budget, identically on both paths.
    """
    bulk, scalar = _oom_outcomes(platform_cls, Algorithm.STATS, fraction)
    assert bulk == scalar
    failed = isinstance(scalar[0], str)
    assert failed == (platform_cls is not MapReducePlatform)
    if failed:
        assert "out-of-memory" in scalar[0]


@pytest.mark.parametrize("fraction", [0.5, 0.9, 0.99])
@pytest.mark.parametrize(
    "algorithm",
    [Algorithm.BFS, Algorithm.CONN, Algorithm.PR, Algorithm.SSSP],
    ids=lambda a: a.value,
)
def test_giraph_out_of_memory_is_bit_identical(algorithm, fraction):
    """Queued message buffers break a budget at the scalar send.

    The bulk runners allocate a superstep's buffers as per-worker
    totals; on a budget those break, they replay the scalar engine's
    send order, so both paths fail at the same worker, bytes and
    round. Half the peak already breaks on the loaded partitions;
    the larger budgets break on queued buffers.
    """
    bulk, scalar = _oom_outcomes(GiraphPlatform, algorithm, fraction)
    assert bulk == scalar
    assert "out-of-memory" in scalar[0]
    if fraction > 0.5:
        assert scalar[3].startswith("superstep-")


#: ``(storage_bytes, etl_simulated_seconds)`` of each upload, as
#: measured when the uploads still built the per-vertex adjacency
#: mapping; an empty graph stores the int ``0`` on MapReduce.
UPLOAD_PINS = {
    ("graphx", "rmat-directed"): (62016.0, 10.000059523692308),
    ("graphx", "rmat-undirected"): (28416.0, 10.000027219692308),
    ("graphx", "sparse-ids"): (672.0, 10.000000598153846),
    ("graphx", "empty"): (0.0, 10.0),
    ("mapreduce", "rmat-directed"): (12384.0, 4.9747692307692304e-05),
    ("mapreduce", "rmat-undirected"): (5760.0, 2.3138461538461537e-05),
    ("mapreduce", "sparse-ids"): (208.0, 8.355555555555555e-07),
    ("mapreduce", "empty"): (0, 0.0),
}


@pytest.mark.parametrize("key", sorted(UPLOAD_PINS), ids="-".join)
def test_upload_cost_is_pinned(key):
    platform_name, graph_name = key
    platform_cls = {"graphx": GraphXPlatform, "mapreduce": MapReducePlatform}
    graph = (
        Graph.from_edges([], vertices=[], directed=False)
        if graph_name == "empty"
        else GRAPHS[graph_name]()
    )
    platform = platform_cls[platform_name](ClusterSpec.paper_distributed())
    handle = platform.upload_graph("equivalence", graph)
    storage, etl_seconds = UPLOAD_PINS[key]
    assert handle.storage_bytes == storage
    assert type(handle.storage_bytes) is type(storage)
    assert handle.etl_simulated_seconds == etl_seconds


#: Per platform, algorithms whose bulk paths never read the handle's
#: per-vertex adjacency mapping.
MAPPING_FREE = {
    GraphLabPlatform: (Algorithm.BFS, Algorithm.CONN, Algorithm.PR),
    GraphXPlatform: (Algorithm.BFS, Algorithm.CONN, Algorithm.PR, Algorithm.STATS),
    MapReducePlatform: (Algorithm.BFS, Algorithm.CONN, Algorithm.STATS),
}


@pytest.mark.parametrize("platform_cls", MAPPING_FREE, ids=lambda cls: cls.name)
def test_bulk_runs_build_no_adjacency_mapping(platform_cls):
    """Only the paths that read the adjacency mapping build it, once."""
    graph = GRAPHS["rmat-undirected"]()
    platform = platform_cls(ClusterSpec.paper_distributed())
    handle = platform.upload_graph("equivalence", graph)
    for algorithm in MAPPING_FREE[platform_cls]:
        platform.run_algorithm(handle, algorithm)
    assert "adjacency" not in handle.detail

    scalar = platform_cls(ClusterSpec.paper_distributed(), bulk=False)
    handle = scalar.upload_graph("equivalence", graph)
    scalar.run_algorithm(handle, Algorithm.STATS)
    adjacency = handle.detail["adjacency"]
    scalar.run_algorithm(handle, Algorithm.STATS)
    assert handle.detail["adjacency"] is adjacency


def test_pregel_stats_central_supersteps_are_bit_identical():
    """Receivers below the central fraction run superstep 1 on worker 0."""
    graph = GRAPHS["sparse-ids"]()
    bulk_values, bulk_key, profile = _run_pregel(
        StatsProgram(), True, graph, adaptive_central_fraction=0.9
    )
    scalar_values, scalar_key, _ = _run_pregel(
        StatsProgram(), False, graph, adaptive_central_fraction=0.9
    )
    assert bulk_values == scalar_values
    assert bulk_key == scalar_key
    assert profile.rounds[-1].name == "superstep-1-central"


@pytest.mark.parametrize(
    "platform_cls", CONVERTED_PLATFORMS, ids=lambda cls: cls.name
)
def test_bulk_is_the_default(platform_cls):
    # The fast path must be what the benchmark actually runs.
    assert platform_cls(ClusterSpec.paper_distributed()).bulk is True


def _run_pregel(program, bulk: bool, graph: Graph, **engine_options):
    engine = PregelEngine(
        graph, ClusterSpec.paper_distributed(), bulk=bulk, **engine_options
    )
    result = engine.run(program)
    return result.values, profile_key(engine.meter.profile), engine.meter.profile


@pytest.mark.parametrize("fraction", [None, 0.1, 0.5])
def test_pregel_sssp_central_supersteps_are_bit_identical(fraction):
    """Weighted delivery on central supersteps matches the scalar path."""
    graph = catalog.load_dataset("road-16").with_uniform_weights()
    program = SSSPProgram(int(graph.vertices[0]), graph.num_vertices)
    bulk_values, bulk_key, profile = _run_pregel(
        program, True, graph, adaptive_central_fraction=fraction
    )
    scalar_values, scalar_key, _ = _run_pregel(
        program, False, graph, adaptive_central_fraction=fraction
    )
    assert bulk_values == scalar_values
    assert bulk_key == scalar_key
    central = sum(record.name.endswith("-central") for record in profile.rounds)
    assert (central > 0) == (fraction is not None)


class UncombinedConn(ConnProgram):
    """CONN with the min combiner switched off."""

    def combiner(self):
        """No sender-side combining: every message is charged."""
        return None


def test_pregel_bulk_path_honours_a_disabled_combiner():
    """A subclass without the combiner is charged per message, as scalar."""
    graph = GRAPHS["rmat-undirected"]()
    bulk_values, bulk_key, _ = _run_pregel(UncombinedConn(), True, graph)
    scalar_values, scalar_key, _ = _run_pregel(UncombinedConn(), False, graph)
    assert bulk_values == scalar_values
    assert bulk_key == scalar_key
