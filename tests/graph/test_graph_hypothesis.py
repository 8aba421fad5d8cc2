"""Property-based tests for the graph substrate (hypothesis)."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graph.graph import Graph
from repro.graph.properties import (
    average_clustering_coefficient,
    degree_assortativity,
    global_clustering_coefficient,
)

edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    min_size=0,
    max_size=120,
)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_undirected_graph_invariants(edges):
    graph = Graph.from_edges(edges)
    # Handshake lemma: degree sum equals twice the edge count.
    assert int(graph.degree_sequence().sum()) == 2 * graph.num_edges
    # Edges are canonical (source <= target) and unique.
    seen = set()
    for source, target in graph.iter_edges():
        assert source < target  # self-loops dropped, canonical order
        assert (source, target) not in seen
        seen.add((source, target))
    # Neighbor relation is symmetric.
    for vertex in graph.vertices:
        for neighbor in graph.neighbors(int(vertex)):
            assert int(vertex) in set(
                int(u) for u in graph.neighbors(int(neighbor))
            )


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_directed_degree_sums_match(edges):
    graph = Graph.from_edges(edges, directed=True)
    out_sum = sum(graph.degree(int(v)) for v in graph.vertices)
    in_sum = sum(graph.in_degree(int(v)) for v in graph.vertices)
    assert out_sum == in_sum == graph.num_edges


@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_clustering_coefficients_bounded(edges):
    graph = Graph.from_edges(edges)
    average = average_clustering_coefficient(graph)
    transitivity = global_clustering_coefficient(graph)
    assert 0.0 <= average <= 1.0
    assert 0.0 <= transitivity <= 1.0


@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_assortativity_in_range_or_nan(edges):
    graph = Graph.from_edges(edges)
    value = degree_assortativity(graph)
    assert math.isnan(value) or -1.0 - 1e-9 <= value <= 1.0 + 1e-9


@given(edge_lists, edge_lists)
@settings(max_examples=40, deadline=None)
def test_graph_equality_is_edge_set_equality(edges_a, edges_b):
    graph_a = Graph.from_edges(edges_a)
    graph_b = Graph.from_edges(edges_b)
    same_vertices = list(graph_a.vertices) == list(graph_b.vertices)
    same_edges = [tuple(e) for e in graph_a.edges] == [
        tuple(e) for e in graph_b.edges
    ]
    assert (graph_a == graph_b) == (same_vertices and same_edges)


#: Edge lists in which about half the edges are self-loops.
loopy_edge_lists = st.lists(
    st.one_of(
        st.integers(0, 12).map(lambda vertex: (vertex, vertex)),
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
    ),
    max_size=60,
)


@given(
    loopy_edge_lists,
    st.booleans(),
    st.booleans(),
    st.lists(st.integers(0, 20), max_size=3),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_constructor_drops_self_loops_as_the_builder_does(
    edges, directed, weighted, isolated, data
):
    vertices = sorted(set(isolated).union(*edges))
    weights = None
    if weighted:
        # With no edge left, the builder yields an unweighted graph.
        assume(any(source != target for source, target in edges))
        weights = data.draw(
            st.lists(
                st.floats(0.5, 4.0), min_size=len(edges), max_size=len(edges)
            )
        )
    graph = Graph(vertices, edges, directed=directed, weights=weights)
    assert graph == Graph.from_edges(
        edges, directed=directed, vertices=vertices, weights=weights
    )
    assert not (graph.edges[:, 0] == graph.edges[:, 1]).any()
