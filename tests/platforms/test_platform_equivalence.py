"""Integration: every platform reproduces the reference outputs.

This is the Output Validator's contract exercised across the whole
matrix — the reproduction's strongest correctness guarantee: eight
radically different execution models (BSP, MapReduce, RDD dataflow,
record-store traversal, GAS vertex cut, GPU dense kernels, columnar
stored procedures, dataflow delta iterations) compute byte-identical
results on every algorithm and several graph shapes (per-vertex
epsilon for PageRank's platform-order float sums; SSSP cells run on
a weighted twin of the graph).
"""

import numpy as np
import pytest

from repro.algorithms.evo import forest_fire_links
from repro.core.cost import ClusterSpec
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.generators import barabasi_albert_graph, rmat_graph
from repro.graph.graph import Graph
from repro.platforms.columnar.driver import VirtuosoPlatform
from repro.platforms.dataflow.driver import StratospherePlatform
from repro.platforms.gas.driver import GraphLabPlatform
from repro.platforms.gpu.driver import MedusaPlatform
from repro.platforms.graphdb.driver import Neo4jPlatform
from repro.platforms.mapreduce.driver import MapReducePlatform
from repro.platforms.pregel.driver import GiraphPlatform
from repro.platforms.rddgraph.driver import GraphXPlatform
from repro.platforms.registry import available_platforms, create_platform_fleet

PLATFORM_FACTORIES = {
    "giraph": lambda: GiraphPlatform(ClusterSpec.paper_distributed()),
    "mapreduce": lambda: MapReducePlatform(ClusterSpec.paper_distributed()),
    "graphx": lambda: GraphXPlatform(ClusterSpec.paper_distributed()),
    "neo4j": lambda: Neo4jPlatform(),
    "graphlab": lambda: GraphLabPlatform(ClusterSpec.paper_distributed()),
    "virtuoso": lambda: VirtuosoPlatform(),
    "medusa": lambda: MedusaPlatform(),
    "stratosphere": lambda: StratospherePlatform(ClusterSpec.paper_distributed()),
}

GRAPHS = {
    "rmat": rmat_graph(8, edge_factor=8, seed=21),
    "scale-free": barabasi_albert_graph(300, 3, seed=4),
    "disconnected": Graph.from_edges(
        [(0, 1), (1, 2), (2, 0), (10, 11), (11, 12)], vertices=[50]
    ),
    # Loop-bearing input: the constructor drops the loops, so every
    # engine reads the graph the reference reads.
    "self-loops": Graph(
        [1, 2, 3, 5, 6, 8, 11],
        [(1, 1), (1, 2), (2, 3), (3, 1), (3, 3), (3, 8), (5, 6), (6, 6)],
    ),
}

PARAMS = AlgorithmParams(evo_new_vertices=25, cd_max_iterations=8)


def _graph_for(name: str, algorithm: Algorithm) -> Graph:
    """The test graph, weighted when the algorithm requires it."""
    graph = GRAPHS[name]
    if algorithm is Algorithm.SSSP:
        return graph.with_uniform_weights(seed=5)
    return graph


@pytest.fixture(scope="module")
def validator():
    return OutputValidator()


@pytest.mark.parametrize("platform_name", sorted(PLATFORM_FACTORIES))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_platform_matches_reference(platform_name, graph_name, algorithm, validator):
    platform = PLATFORM_FACTORIES[platform_name]()
    graph = _graph_for(graph_name, algorithm)
    handle = platform.upload_graph(graph_name, graph)
    try:
        run = platform.run_algorithm(handle, algorithm, PARAMS)
        validator.validate(graph, algorithm, PARAMS, run.output)
        assert run.simulated_seconds > 0
        assert run.profile.num_rounds >= 1
    finally:
        platform.delete_graph(handle)


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_platforms_agree_with_each_other(algorithm):
    graph = _graph_for("rmat", algorithm)
    outputs = []
    for factory in PLATFORM_FACTORIES.values():
        platform = factory()
        handle = platform.upload_graph("g", graph)
        try:
            outputs.append(platform.run_algorithm(handle, algorithm, PARAMS).output)
        finally:
            platform.delete_graph(handle)
    first = outputs[0]
    if algorithm is Algorithm.STATS:
        # Mean clustering is a float sum whose rounding depends on
        # the platform's summation order; counts must match exactly.
        for output in outputs[1:]:
            assert output.num_vertices == first.num_vertices
            assert output.num_edges == first.num_edges
            assert output.mean_local_clustering == pytest.approx(
                first.mean_local_clustering, abs=1e-9
            )
    elif algorithm is Algorithm.PR:
        # Ranks are per-vertex float sums — same summation-order
        # caveat as STATS, so per-vertex epsilon, not equality.
        for output in outputs[1:]:
            assert set(output) == set(first)
            for vertex, rank in first.items():
                assert output[vertex] == pytest.approx(rank, abs=1e-9)
    else:
        assert all(output == first for output in outputs[1:])


@pytest.mark.parametrize("new_vertices", [0, 3])
@pytest.mark.parametrize("platform_name", available_platforms())
def test_evo_rejects_an_empty_graph_as_the_reference_does(
    platform_name, new_vertices
):
    empty = Graph.from_edges([], vertices=[], directed=False)
    message = "^cannot evolve an empty graph$"
    with pytest.raises(ValueError, match=message):
        forest_fire_links(empty, new_vertices)
    (platform,) = create_platform_fleet(
        ClusterSpec.paper_distributed(), names=[platform_name]
    )
    handle = platform.upload_graph("empty", empty)
    params = AlgorithmParams(evo_new_vertices=new_vertices)
    with pytest.raises(ValueError, match=message):
        platform.run_algorithm(handle, Algorithm.EVO, params)


@pytest.mark.parametrize("platform_name", available_platforms())
def test_upload_keeps_one_graph_view(platform_name):
    """Every engine reads the uploaded graph itself: the handle holds
    the undirected view, and no second adjacency array beside it."""
    graph = rmat_graph(6, edge_factor=8, seed=3, directed=True)
    (platform,) = create_platform_fleet(
        ClusterSpec.paper_distributed(), names=[platform_name]
    )
    handle = platform.upload_graph("g", graph)
    assert handle.graph is graph.to_undirected()
    for name, value in handle.detail.items():
        parts = value if isinstance(value, tuple) else (value,)
        assert not any(isinstance(part, np.ndarray) for part in parts), name
