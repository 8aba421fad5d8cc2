"""Property tests: the array kernels against plain Python loops.

The database engines' traversal kernels (BFS levels, component
labels) are held to networkx, and their PageRank rounds to the
per-vertex loop the scalar procedures run.

The two triangle counts, the references' :func:`triangle_links` and
the engines' :func:`received_links`, are held to networkx instead;
the engines' array twin :func:`csr_received_links` is held to
:func:`received_links`.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import kernels
from repro.graph.graph import Graph
from repro.graph.kernels import (
    csr_bfs_levels,
    csr_gather,
    csr_min_labels,
    csr_pagerank,
    group_keys,
    group_reduce,
    hash_worker,
    hash_workers,
    ordered_group_sum,
    triangle_links,
)
from repro.graph import properties
from repro.graph.properties import (
    csr_received_links,
    lcc_value,
    lcc_values,
    received_links,
)

#: Row lengths of a CSR, zero-degree rows included.
degree_lists = st.lists(st.integers(0, 6), min_size=1, max_size=30)

#: (key, value) records with few distinct keys, so keys repeat.
int_records = st.lists(
    st.tuples(st.integers(0, 12), st.integers(-1000, 1000)), max_size=80
)
float_records = st.lists(
    st.tuples(
        st.integers(0, 12),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
    max_size=80,
)


@given(degree_lists, st.data())
@settings(max_examples=100, deadline=None)
def test_csr_gather_walks_each_row_slice_in_turn(degrees, data):
    offsets = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    rows = data.draw(
        st.lists(st.integers(0, len(degrees) - 1), max_size=40), label="rows"
    )
    positions, counts = csr_gather(offsets, np.array(rows, dtype=np.int64))
    expected = [
        position
        for row in rows
        for position in range(offsets[row], offsets[row + 1])
    ]
    assert positions.tolist() == expected
    assert counts.tolist() == [degrees[row] for row in rows]


@given(int_records)
@settings(max_examples=100, deadline=None)
def test_group_reduce_matches_a_dict_of_minima(records):
    keys = np.array([key for key, _ in records], dtype=np.int64)
    values = np.array([value for _, value in records], dtype=np.int64)
    expected: dict[int, int] = {}
    for key, value in records:
        expected[key] = min(expected.get(key, value), value)
    distinct, minima = group_reduce(np.minimum, keys, values)
    assert distinct.tolist() == sorted(expected)
    assert minima.tolist() == [expected[key] for key in sorted(expected)]


@given(float_records)
@settings(max_examples=100, deadline=None)
def test_ordered_group_sum_folds_in_input_order(records):
    keys = np.array([key for key, _ in records], dtype=np.int64)
    values = np.array([value for _, value in records], dtype=np.float64)
    sums: dict[int, float] = {}
    first: dict[int, int] = {}
    for index, (key, value) in enumerate(records):
        sums[key] = sums.get(key, 0.0) + value
        first.setdefault(key, index)
    groups = group_keys(keys)
    folded = ordered_group_sum(groups, values)
    assert groups.keys.tolist() == sorted(sums)
    assert groups.first.tolist() == [first[key] for key in sorted(sums)]
    # Exact equality: the same additions in the same order.
    assert folded.tolist() == [sums[key] for key in sorted(sums)]


@given(
    st.lists(st.integers(0, 2 ** 40), max_size=50),
    st.integers(1, 16),
)
@settings(max_examples=100, deadline=None)
def test_hash_forms_agree_elementwise(ids, num_workers):
    vectorized = hash_workers(np.array(ids, dtype=np.int64), num_workers)
    assert vectorized.dtype == np.int64
    assert vectorized.tolist() == [hash_worker(v, num_workers) for v in ids]


@st.composite
def simple_graphs(draw) -> Graph:
    """Undirected simple graphs, some built as directed and symmetrized."""
    n = draw(st.integers(0, 14))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=60)
    )
    edges = [(u, v) for u, v in pairs if u != v and u < n and v < n]
    directed = draw(st.booleans())
    return Graph(range(n), edges, directed=directed).to_undirected()


def _networkx_triangles(graph: Graph) -> list[int]:
    reference = nx.Graph()
    reference.add_nodes_from(graph.vertices.tolist())
    reference.add_edges_from(graph.edges.tolist())
    triangles = nx.triangles(reference)
    return [triangles[vertex] for vertex in graph.vertices.tolist()]


def _received(graph: Graph) -> list[int]:
    """Each vertex's count from the lists all its neighbors ship it."""
    adjacency = graph.adjacency()
    return [
        received_links(adjacency[v], [adjacency[u] for u in adjacency[v]])
        for v in graph.vertices.tolist()
    ]


NAMED_GRAPHS = {
    "empty": Graph([], []),
    "isolated": Graph(range(5), []),
    "star": Graph.from_edges([(0, leaf) for leaf in range(1, 9)]),
    "directed": Graph(
        range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)], directed=True
    ).to_undirected(),
    "complete-100": Graph.from_edges(
        [(u, v) for u in range(100) for v in range(u + 1, 100)]
    ),
}


def _assert_both_counts_match_networkx(graph: Graph) -> None:
    expected = _networkx_triangles(graph)
    assert triangle_links(*graph.csr()).tolist() == expected
    assert _received(graph) == expected


@given(simple_graphs())
@settings(max_examples=150, deadline=None)
def test_both_triangle_counts_match_networkx(graph):
    _assert_both_counts_match_networkx(graph)


@pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
def test_both_triangle_counts_match_networkx_on_named_graphs(name):
    _assert_both_counts_match_networkx(NAMED_GRAPHS[name])


def test_complete_graph_spans_several_wedge_blocks():
    # Oriented by (degree, id), K_100 has C(100, 3) wedges, so the
    # complete-100 case above crosses block boundaries.
    assert math.comb(100, 3) > 2 * kernels._WEDGE_BLOCK


@pytest.mark.parametrize("block", [1, 5, 1 << 40])
def test_wedge_block_size_does_not_change_the_counts(monkeypatch, block):
    monkeypatch.setattr(kernels, "_WEDGE_BLOCK", block)
    for graph in NAMED_GRAPHS.values():
        assert triangle_links(*graph.csr()).tolist() == _networkx_triangles(graph)


@st.composite
def scattered_graphs(draw) -> Graph:
    """Undirected simple graphs on scattered ids.

    Isolated and degree-1 vertices are common at these sizes.
    """
    ids = draw(st.lists(st.integers(0, 10**6), max_size=16, unique=True))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=50)
    )
    edges = [
        (ids[u], ids[v])
        for u, v in pairs
        if u != v and u < len(ids) and v < len(ids)
    ]
    return Graph.from_edges(edges, vertices=ids)


def _shipped(graph: Graph) -> list[int]:
    """received_links over the lists the engines ship: degree >= 2."""
    adjacency = graph.adjacency()
    return [
        received_links(
            adjacency[v],
            [adjacency[u] for u in adjacency[v] if len(adjacency[u]) >= 2],
        )
        for v in graph.vertices.tolist()
    ]


@given(st.one_of(simple_graphs(), scattered_graphs()))
@settings(max_examples=150, deadline=None)
def test_csr_received_links_equals_received_links(graph):
    links = csr_received_links(*graph.csr())
    assert links.tolist() == _shipped(graph)
    degrees = graph.out_degrees()
    coefficients = lcc_values(links, degrees)
    assert coefficients.tolist() == [
        lcc_value(count, degree)
        for count, degree in zip(links.tolist(), degrees.tolist())
    ]


@pytest.mark.parametrize("block", [1, 7, 1 << 40])
def test_path_block_size_does_not_change_the_links(monkeypatch, block):
    monkeypatch.setattr(properties, "_PATH_BLOCK", block)
    for graph in NAMED_GRAPHS.values():
        assert csr_received_links(*graph.csr()).tolist() == _shipped(graph)


def _networkx_graph(graph: Graph) -> nx.Graph:
    reference = nx.Graph()
    reference.add_nodes_from(graph.vertices.tolist())
    reference.add_edges_from(graph.edges.tolist())
    return reference


def _assert_traversals_match_networkx(graph: Graph) -> None:
    reference = _networkx_graph(graph)
    ids = graph.vertices.tolist()
    offsets, targets = graph.csr()
    least = {
        vertex: min(component)
        for component in nx.connected_components(reference)
        for vertex in component
    }
    labels = csr_min_labels(offsets, targets)
    assert [ids[label] for label in labels.tolist()] == [least[v] for v in ids]
    for source in range(min(len(ids), 3)):
        hops = nx.single_source_shortest_path_length(reference, ids[source])
        levels = csr_bfs_levels(offsets, targets, source)
        assert levels.tolist() == [hops.get(v, -1) for v in ids]


@given(scattered_graphs())
@settings(max_examples=150, deadline=None)
def test_traversal_kernels_match_networkx(graph):
    _assert_traversals_match_networkx(graph)


def test_component_labels_cross_a_long_path():
    # The least id sits mid-path, so labels must travel both ways.
    order = list(range(250, 500)) + [0] + list(range(1, 250))
    _assert_traversals_match_networkx(Graph.from_edges(zip(order, order[1:])))


@given(scattered_graphs(), st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_pagerank_rounds_match_the_per_vertex_loop(graph, iterations):
    damping = 0.85
    adjacency = graph.adjacency()
    vertices = graph.vertices.tolist()
    n = len(vertices)
    ranks = {v: 1.0 / n for v in vertices}
    for _iteration in range(iterations):
        shares = {v: ranks[v] / len(adjacency[v]) for v in vertices if adjacency[v]}
        new_ranks = {}
        for v in vertices:
            total = 0.0
            for neighbor in adjacency[v]:
                total += shares[neighbor]
            new_ranks[v] = (1.0 - damping) / n + damping * total
        ranks = new_ranks
    folded = csr_pagerank(*graph.csr(), damping, iterations)
    # Exact equality: the same operations in the same order.
    assert folded.tolist() == [ranks[v] for v in vertices]
