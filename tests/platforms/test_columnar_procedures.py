"""Unit tests for the column store's vectored stored procedures."""

import pytest

from repro.algorithms import (
    bfs,
    community_detection,
    connected_components,
    forest_fire_links,
    stats,
)
from repro.graph.generators import rmat_graph
from repro.graph.graph import Graph
from repro.platforms.columnar import procedures
from repro.platforms.columnar.table import ColumnTable


def _table_and_vertices(graph: Graph):
    undirected = graph.to_undirected()
    arcs = []
    for source, target in undirected.iter_edges():
        arcs.append((source, target))
        arcs.append((target, source))
    return (
        ColumnTable.edge_table(arcs),
        [int(v) for v in undirected.vertices],
    )


@pytest.fixture(scope="module")
def fixture_graph():
    return rmat_graph(8, edge_factor=6, seed=17)


@pytest.fixture(scope="module")
def table_vertices(fixture_graph):
    return _table_and_vertices(fixture_graph)


class TestBfsDistances:
    def test_matches_reference(self, fixture_graph, table_vertices):
        table, vertices = table_vertices
        start = int(fixture_graph.vertices[0])
        distances, stats_ = procedures.bfs_distances(table, vertices, start)
        assert distances == bfs(fixture_graph, start)
        assert stats_.random_lookups > 0
        assert stats_.endpoints_visited > 0

    def test_isolated_vertices_unreachable(self):
        graph = Graph.from_edges([(0, 1)], vertices=[5])
        table, vertices = _table_and_vertices(graph)
        distances, _stats = procedures.bfs_distances(table, vertices, 0)
        assert distances == {0: 0, 1: 1, 5: -1}


class TestComponents:
    def test_matches_reference(self, fixture_graph, table_vertices):
        table, vertices = table_vertices
        labels, _stats = procedures.connected_components(table, vertices)
        assert labels == connected_components(fixture_graph)

    def test_multiple_components(self):
        graph = Graph.from_edges([(0, 1), (5, 6)], vertices=[9])
        table, vertices = _table_and_vertices(graph)
        labels, _stats = procedures.connected_components(table, vertices)
        assert labels == {0: 0, 1: 0, 5: 5, 6: 5, 9: 9}


class TestClusteringStatistics:
    def test_matches_reference(self, fixture_graph, table_vertices):
        table, vertices = table_vertices
        record, _stats = procedures.clustering_statistics(table, vertices)
        reference = stats(fixture_graph)
        assert record.num_vertices == reference.num_vertices
        assert record.num_edges == reference.num_edges
        assert record.mean_local_clustering == pytest.approx(
            reference.mean_local_clustering, abs=1e-9
        )

    def test_empty_vertex_list(self):
        table, _ = _table_and_vertices(Graph.from_edges([(0, 1)]))
        record, _stats = procedures.clustering_statistics(table, [])
        assert (
            record.num_vertices,
            record.num_edges,
            record.mean_local_clustering,
        ) == (0, 0, 0.0)


class TestLabelPropagation:
    def test_matches_reference(self, fixture_graph, table_vertices):
        table, vertices = table_vertices
        labels, _stats = procedures.label_propagation(
            table, vertices, max_iterations=8,
            hop_attenuation=0.1, node_preference=0.1,
        )
        assert labels == community_detection(fixture_graph, max_iterations=8)

    def test_zero_iterations_identity(self, table_vertices):
        table, vertices = table_vertices
        labels, _stats = procedures.label_propagation(
            table, vertices, max_iterations=0,
            hop_attenuation=0.1, node_preference=0.1,
        )
        assert labels == {v: v for v in vertices}


class TestForestFire:
    def test_matches_reference(self, fixture_graph, table_vertices):
        table, vertices = table_vertices
        links, _stats = procedures.forest_fire(
            table, vertices, num_new_vertices=15,
            p_forward=0.3, max_hops=2, seed=4,
        )
        assert links == forest_fire_links(
            fixture_graph, 15, p_forward=0.3, max_hops=2, seed=4
        )

    def test_work_counted(self, table_vertices):
        table, vertices = table_vertices
        _links, stats_ = procedures.forest_fire(
            table, vertices, num_new_vertices=5,
            p_forward=0.3, max_hops=2, seed=4,
        )
        assert stats_.random_lookups >= len(vertices)


def test_stats_merge():
    first = procedures.ProcedureStats(random_lookups=2, endpoints_visited=10)
    second = procedures.ProcedureStats(random_lookups=3, endpoints_visited=5)
    first.merge(second)
    assert first.random_lookups == 5
    assert first.endpoints_visited == 15
