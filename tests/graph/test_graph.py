"""Unit tests for the core Graph/GraphBuilder data structures."""

import numpy as np
import pytest

from repro.graph.graph import Graph, GraphBuilder


class TestGraphBuilder:
    def test_deduplicates_edges(self):
        builder = GraphBuilder()
        assert builder.add_edge(1, 2)
        assert not builder.add_edge(1, 2)
        assert not builder.add_edge(2, 1)  # undirected: same edge
        assert builder.num_edges == 1

    def test_directed_keeps_both_orientations(self):
        builder = GraphBuilder(directed=True)
        assert builder.add_edge(1, 2)
        assert builder.add_edge(2, 1)
        assert builder.num_edges == 2

    def test_drops_self_loops_by_default(self):
        builder = GraphBuilder()
        assert not builder.add_edge(3, 3)
        assert builder.num_edges == 0
        # The vertex is not even registered by a rejected self-loop.
        assert builder.num_vertices == 0

    def test_rejects_negative_vertices(self):
        builder = GraphBuilder()
        with pytest.raises(ValueError):
            builder.add_vertex(-1)
        with pytest.raises(ValueError):
            builder.add_edge(-1, 2)

    def test_remove_edge_keeps_vertices(self):
        builder = GraphBuilder()
        builder.add_edge(1, 2)
        assert builder.remove_edge(2, 1)
        assert not builder.remove_edge(1, 2)
        assert builder.num_vertices == 2

    def test_has_edge_is_orientation_insensitive_undirected(self):
        builder = GraphBuilder()
        builder.add_edge(5, 3)
        assert builder.has_edge(3, 5)
        assert builder.has_edge(5, 3)

    def test_build_produces_graph(self):
        builder = GraphBuilder()
        builder.add_edges([(0, 1), (1, 2)])
        builder.add_vertex(9)
        graph = builder.build()
        assert graph.num_vertices == 4
        assert graph.num_edges == 2


class TestGraph:
    def test_vertices_sorted_and_unique(self):
        graph = Graph.from_edges([(5, 1), (3, 1)], vertices=[7, 7])
        assert list(graph.vertices) == [1, 3, 5, 7]

    def test_neighbors_undirected(self, triangle_graph):
        assert list(triangle_graph.neighbors(2)) == [0, 1, 3]
        assert list(triangle_graph.neighbors(4)) == []

    def test_neighbors_directed(self):
        graph = Graph.from_edges([(0, 1), (0, 2), (2, 0)], directed=True)
        assert list(graph.neighbors(0)) == [1, 2]
        assert list(graph.in_neighbors(0)) == [2]
        assert graph.degree(0) == 2
        assert graph.in_degree(0) == 1

    def test_has_edge_directed_is_directional(self):
        graph = Graph.from_edges([(0, 1)], directed=True)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_has_edge_missing_vertex(self, triangle_graph):
        assert not triangle_graph.has_edge(0, 99)

    def test_edges_canonical_order_undirected(self):
        graph = Graph.from_edges([(9, 2), (4, 1)])
        assert [tuple(e) for e in graph.edges] == [(1, 4), (2, 9)]

    def test_degrees_match_neighbor_counts(self, small_rmat):
        degrees = small_rmat.degrees()
        for vertex in small_rmat.vertices:
            assert degrees[int(vertex)] == len(small_rmat.neighbors(int(vertex)))

    def test_degree_sequence_alignment(self, small_rmat):
        sequence = small_rmat.degree_sequence()
        for index, vertex in enumerate(small_rmat.vertices):
            assert sequence[index] == small_rmat.degree(int(vertex))

    def test_constructor_drops_self_loops_with_their_weights(self):
        graph = Graph(
            [1, 2, 3], [(2, 2), (1, 2), (3, 3)], weights=[1.0, 2.0, 3.0]
        )
        assert [tuple(e) for e in graph.edges] == [(1, 2)]
        assert graph.weights.tolist() == [2.0]
        assert graph.neighbors(2).tolist() == [1]
        assert graph.csr_weights().tolist() == [2.0, 2.0]

    def test_constructor_checks_self_loops_before_dropping_them(self):
        with pytest.raises(ValueError, match="unregistered vertex"):
            Graph([1], [(2, 2)])
        with pytest.raises(ValueError, match="finite and positive"):
            Graph([1, 2], [(1, 1), (1, 2)], weights=[-1.0, 1.0])
        with pytest.raises(ValueError, match="weights for"):
            Graph([1, 2], [(1, 1), (1, 2)], weights=[1.0])

    def test_to_undirected_merges_reciprocal_arcs(self):
        directed = Graph.from_edges([(0, 1), (1, 0)], directed=True)
        undirected = directed.to_undirected()
        assert undirected.num_edges == 1

    def test_subgraph_induced(self, triangle_graph):
        sub = triangle_graph.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3

    def test_subgraph_unknown_vertex(self, triangle_graph):
        with pytest.raises(ValueError):
            triangle_graph.subgraph([0, 99])

    def test_relabel_dense(self):
        graph = Graph.from_edges([(10, 20), (20, 30)])
        relabeled, mapping = graph.relabel()
        assert list(relabeled.vertices) == [0, 1, 2]
        assert mapping == {10: 0, 20: 1, 30: 2}
        assert relabeled.has_edge(0, 1)

    def test_adjacency_export(self, triangle_graph):
        adjacency = triangle_graph.adjacency()
        assert adjacency[2] == [0, 1, 3]
        assert adjacency[4] == []

    def test_contains_and_len(self, triangle_graph):
        assert 3 in triangle_graph
        assert 99 not in triangle_graph
        assert len(triangle_graph) == 5

    def test_equality(self):
        a = Graph.from_edges([(0, 1), (1, 2)])
        b = Graph.from_edges([(1, 2), (0, 1)])
        c = Graph.from_edges([(0, 1)])
        assert a == b
        assert a != c

    def test_empty_graph(self):
        graph = Graph([], [])
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert list(graph.iter_edges()) == []

    def test_edge_referencing_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            Graph([0, 1], [(0, 2)])

    def test_neighbors_are_numpy_vertex_ids(self, triangle_graph):
        neighbors = triangle_graph.neighbors(0)
        assert isinstance(neighbors, np.ndarray)
        assert set(neighbors.tolist()) == {1, 2}


class TestBulkAccessors:
    """The vectorized CSR helpers behind the bulk engine kernels."""

    def test_out_degrees_matches_per_vertex_degree(self, triangle_graph):
        degrees = triangle_graph.out_degrees()
        for position, vertex in enumerate(triangle_graph.vertices):
            assert degrees[position] == triangle_graph.degree(int(vertex))

    def test_out_degrees_directed(self):
        graph = Graph.from_edges([(0, 1), (0, 2), (1, 2)], directed=True)
        assert graph.out_degrees().tolist() == [2, 1, 0]

    def test_indices_of_round_trips(self, triangle_graph):
        ids = triangle_graph.vertices
        idx = triangle_graph.indices_of(ids)
        assert np.array_equal(triangle_graph.vertices[idx], ids)
        # Sparse, unsorted ids map correctly too.
        sparse = Graph.from_edges([(10, 30), (30, 700)])
        assert sparse.indices_of([700, 10]).tolist() == [2, 0]

    def test_indices_of_rejects_unknown_vertices(self, triangle_graph):
        with pytest.raises(KeyError):
            triangle_graph.indices_of([0, 99])
        with pytest.raises(KeyError):
            Graph([], []).indices_of([1])

    def test_indices_of_empty(self, triangle_graph):
        assert triangle_graph.indices_of([]).tolist() == []

    def test_csr_arrays_describe_adjacency(self, triangle_graph):
        offsets, targets = triangle_graph.csr()
        assert len(offsets) == triangle_graph.num_vertices + 1
        idx = triangle_graph.indices_of([2])[0]
        row = targets[offsets[idx] : offsets[idx + 1]]
        assert set(triangle_graph.vertices[row].tolist()) == {0, 1, 3}
