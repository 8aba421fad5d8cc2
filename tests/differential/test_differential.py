"""Cross-platform differential harness (faults disabled).

Every platform must compute outputs equal to the reference
implementation on every fuzzed graph — the strongest cross-platform
equivalence statement the reproduction makes: eight execution models,
twenty adversarial graphs, five deterministic algorithms, zero
disagreements.
"""

import pytest

from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm, AlgorithmParams

from tests.differential.conftest import (
    FUZZED_GRAPHS,
    FUZZED_WEIGHTED_GRAPHS,
    PLATFORM_FACTORIES,
)

ALGORITHMS = [
    Algorithm.BFS,
    Algorithm.CONN,
    Algorithm.CD,
    Algorithm.STATS,
    Algorithm.EVO,
]

#: The LDBC-parity algorithms run over the *weighted* pool (SSSP needs
#: edge weights; PR and LCC ignore them). SSSP and LCC compare exactly,
#: PR per vertex within the validator's tolerance.
LDBC_ALGORITHMS = [Algorithm.PR, Algorithm.SSSP, Algorithm.LCC]

PARAMS = AlgorithmParams(cd_max_iterations=6)


@pytest.fixture(scope="module")
def validator():
    return OutputValidator()


@pytest.mark.slow
@pytest.mark.parametrize("graph_name", sorted(FUZZED_GRAPHS))
@pytest.mark.parametrize("platform_name", sorted(PLATFORM_FACTORIES))
def test_platform_matches_reference_on_fuzzed_graphs(
    platform_name, graph_name, validator
):
    """One platform, one fuzzed graph, all five algorithms: the
    platform's outputs equal the reference's."""
    platform = PLATFORM_FACTORIES[platform_name]()
    graph = FUZZED_GRAPHS[graph_name]
    handle = platform.upload_graph(graph_name, graph)
    try:
        for algorithm in ALGORITHMS:
            run = platform.run_algorithm(handle, algorithm, PARAMS)
            validator.validate(graph, algorithm, PARAMS, run.output)
    finally:
        platform.delete_graph(handle)


@pytest.mark.slow
@pytest.mark.parametrize("graph_name", sorted(FUZZED_WEIGHTED_GRAPHS))
@pytest.mark.parametrize("platform_name", sorted(PLATFORM_FACTORIES))
def test_platform_matches_reference_on_ldbc_algorithms(
    platform_name, graph_name, validator
):
    """One platform, one fuzzed weighted graph, the three LDBC-parity
    algorithms: the platform's outputs equal the reference's (PR
    within the per-vertex tolerance, SSSP and LCC exactly)."""
    platform = PLATFORM_FACTORIES[platform_name]()
    graph = FUZZED_WEIGHTED_GRAPHS[graph_name]
    handle = platform.upload_graph(graph_name, graph)
    try:
        for algorithm in LDBC_ALGORITHMS:
            run = platform.run_algorithm(handle, algorithm, PARAMS)
            validator.validate(graph, algorithm, PARAMS, run.output)
    finally:
        platform.delete_graph(handle)


def test_weighted_pool_has_positive_distinct_weights():
    """The weighted pool is genuinely fuzzed: every graph carries
    strictly positive weights, assignments differ across graphs, and
    every graph has at least one edge (all-active PR needs one)."""
    weight_sets = set()
    for graph in FUZZED_WEIGHTED_GRAPHS.values():
        triples = list(graph.iter_weighted_edges())
        assert triples, "weighted fuzz graphs must have at least one edge"
        assert all(weight > 0 for _s, _t, weight in triples)
        weight_sets.add(tuple(round(w, 12) for _s, _t, w in triples))
    assert len(weight_sets) == len(FUZZED_WEIGHTED_GRAPHS)


def test_fuzzed_pool_covers_the_edge_cases():
    """The pool itself exercises what it promises: multiple components,
    singletons, and a spread of sizes."""
    components = set()
    sizes = set()
    singleton_graphs = 0
    for graph in FUZZED_GRAPHS.values():
        undirected = graph.to_undirected()
        degrees = {int(v): 0 for v in undirected.vertices}
        for u, v in undirected.iter_edges():
            degrees[u] += 1
            degrees[v] += 1
        if any(count == 0 for count in degrees.values()):
            singleton_graphs += 1
        sizes.add(undirected.num_vertices)
        components.add(undirected.num_vertices - undirected.num_edges >= 1)
    assert len(FUZZED_GRAPHS) == 20
    assert singleton_graphs >= 5
    assert len(sizes) >= 8
