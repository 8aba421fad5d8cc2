"""Property tests: the array kernels against plain Python loops.

The two triangle counts, the references' :func:`triangle_links` and
the engines' :func:`received_links`, are held to networkx instead.
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
    csr_gather,
    group_reduce,
    hash_worker,
    hash_workers,
    ordered_group_sum,
    triangle_links,
)
from repro.graph.properties import received_links

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
    distinct, first_index, folded = ordered_group_sum(keys, values)
    assert distinct.tolist() == sorted(sums)
    assert first_index.tolist() == [first[key] for key in sorted(sums)]
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
