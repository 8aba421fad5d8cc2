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
PR and SSSP have them today) is automatically held to the bar, and
an algorithm without one must still produce identical results and
profiles by running the same scalar path under both flags. The sweep
covers a directed graph, an undirected graph, and a graph with sparse
vertex ids plus an isolated vertex, on the 10-worker cluster; one
graph also runs on the single-node cluster, where every message is
local and there is one worker pair. "Identical" means the algorithm
outputs and the profile's ``profile_fingerprint`` (every recorded
round field, startup and the memory peaks — the bar the pinned
digests use) plus ``simulated_seconds``, ``total_messages`` and
``launches`` all compare equal with ``==``. Two Pregel cases run the
engine directly: SSSP under adaptive central supersteps, and a CONN
program whose combiner is switched off.
"""

import pytest

from repro.core.cost import ClusterSpec
from repro.core.workload import Algorithm, AlgorithmParams
from repro.datasets import catalog
from repro.graph.generators import rmat_graph
from repro.graph.graph import Graph
from repro.observability import profile_fingerprint
from repro.platforms.gas.driver import GraphLabPlatform
from repro.platforms.mapreduce.driver import MapReducePlatform
from repro.platforms.pregel.driver import GiraphPlatform
from repro.platforms.pregel.engine import PregelEngine
from repro.platforms.pregel.programs import ConnProgram, SSSPProgram
from repro.platforms.rddgraph.driver import GraphXPlatform

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

    BFS, CONN and SSSP exercise the columnar ``RecordBatch`` executor;
    the remaining jobs (CD, STATS, EVO, and the PR/LCC chains) stay on
    scalar records under ``bulk=True`` (their jobs carry non-columnar
    values) but still flow through the batched shuffle accounting —
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
