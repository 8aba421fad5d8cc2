"""Vectored stored procedures over the edge table.

The paper's Section 3.4 runs BFS through Virtuoso's SQL ``transitive``
extension; supporting the *whole* Graphalytics workload on the column
store (the paper: "we are working on implementing support for
OpenLink Virtuoso") additionally needs distance tracking, component
labeling, clustering statistics, label propagation, and forest-fire
evolution. This module implements them the way a column store does:
vector-at-a-time loops over the sorted, compressed ``sp_edge`` table,
with per-vertex outbound ranges located by binary search.

Each procedure returns its result plus a :class:`ProcedureStats`
work profile (random lookups + edge endpoints visited) that the
platform driver converts into cost-meter charges.

BFS, CONN and PR also run whole over the uploaded graph's CSR
(:meth:`~repro.graph.graph.Graph.csr`), whose row ``i`` lists the
same arcs as the ``spe_from`` key range of vertex ``i`` in
``sp_edge``: ``csr_bfs_distances``, ``csr_connected_components`` and
``csr_pagerank`` return what their per-vertex twins return, with the
counters in closed form. A per-vertex procedure looks up each vertex
it expands once and visits that vertex's arcs, so BFS counts the
vertices it reaches and the sum of their degrees, CONN every vertex
and every arc, and PR every vertex and every arc once per round plus
once for the adjacency read.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.algorithms import evo as evo_ref
from repro.algorithms.bfs import UNREACHABLE
from repro.algorithms.sssp import UNREACHABLE_DISTANCE
from repro.algorithms.stats import GraphStats
from repro.graph import kernels
from repro.graph.graph import Graph
from repro.graph.properties import lcc_value, received_links
from repro.platforms.columnar.table import ColumnTable

__all__ = [
    "ProcedureStats",
    "bfs_distances",
    "connected_components",
    "clustering_statistics",
    "label_propagation",
    "forest_fire",
    "pagerank",
    "sssp_distances",
    "local_clustering",
    "csr_bfs_distances",
    "csr_connected_components",
    "csr_pagerank",
]


@dataclass
class ProcedureStats:
    """Work counters of one stored-procedure execution."""

    random_lookups: int = 0
    endpoints_visited: int = 0

    def merge(self, other: "ProcedureStats") -> None:
        """Accumulate another procedure's counters."""
        self.random_lookups += other.random_lookups
        self.endpoints_visited += other.endpoints_visited


class _EdgeReader:
    """Vectored outbound-edge access over the sorted edge table."""

    def __init__(self, table: ColumnTable, stats: ProcedureStats):
        self.table = table
        self.stats = stats
        self._keys = table.column("spe_from").to_numpy()
        self._values = table.column("spe_to").to_numpy()
        self._weights = (
            table.column("spe_weight").to_numpy()
            if "spe_weight" in table.columns
            else None
        )

    def out_neighbors(self, vertex: int) -> np.ndarray:
        """The (sorted) targets of a vertex's outbound edges."""
        left = int(np.searchsorted(self._keys, vertex, side="left"))
        right = int(np.searchsorted(self._keys, vertex, side="right"))
        self.stats.random_lookups += 1
        self.stats.endpoints_visited += right - left
        return self._values[left:right]

    def weighted_out_neighbors(
        self, vertex: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, weights)`` of a vertex's outbound edges.

        One binary search locates the row range shared by all aligned
        columns; both the target and the weight column are then read
        over that span, doubling the endpoints scanned.
        """
        if self._weights is None:
            raise ValueError(
                f"table {self.table.name!r} has no spe_weight column"
            )
        left = int(np.searchsorted(self._keys, vertex, side="left"))
        right = int(np.searchsorted(self._keys, vertex, side="right"))
        self.stats.random_lookups += 1
        self.stats.endpoints_visited += 2 * (right - left)
        return self._values[left:right], self._weights[left:right]


def bfs_distances(
    table: ColumnTable, vertices: list[int], start: int
) -> tuple[dict[int, int], ProcedureStats]:
    """Per-vertex hop distance via frontier-vector expansion."""
    stats = ProcedureStats()
    reader = _EdgeReader(table, stats)
    distances = {vertex: UNREACHABLE for vertex in vertices}
    distances[start] = 0
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        gathered = [reader.out_neighbors(int(v)) for v in frontier.tolist()]
        gathered = [g for g in gathered if g.size]
        if not gathered:
            break
        targets = kernels.sorted_unique(np.concatenate(gathered))
        fresh = [
            int(t) for t in targets.tolist() if distances[t] == UNREACHABLE
        ]
        for vertex in fresh:
            distances[vertex] = depth
        frontier = np.array(fresh, dtype=np.int64)
    return distances, stats


def connected_components(
    table: ColumnTable, vertices: list[int]
) -> tuple[dict[int, int], ProcedureStats]:
    """Component labels: one transitive closure per new component.

    Vertices are scanned ascending, so each closure's seed is its
    component's minimum id — the benchmark's labeling convention.
    """
    stats = ProcedureStats()
    reader = _EdgeReader(table, stats)
    labels: dict[int, int] = {}
    for vertex in sorted(vertices):
        if vertex in labels:
            continue
        labels[vertex] = vertex
        frontier = np.array([vertex], dtype=np.int64)
        while frontier.size:
            gathered = [reader.out_neighbors(int(v)) for v in frontier.tolist()]
            gathered = [g for g in gathered if g.size]
            if not gathered:
                break
            targets = kernels.sorted_unique(np.concatenate(gathered))
            fresh = [int(t) for t in targets.tolist() if t not in labels]
            for target in fresh:
                labels[target] = vertex
            frontier = np.array(fresh, dtype=np.int64)
    return labels, stats


def clustering_statistics(
    table: ColumnTable, vertices: list[int]
) -> tuple[GraphStats, ProcedureStats]:
    """The STATS record from one clustering pass.

    The table reads and work counters of :func:`local_clustering`,
    with the coefficients folded into their mean.
    """
    coefficients, total_arcs, stats = _clustering_pass(table, vertices)
    clustering_sum = 0.0
    for coefficient in coefficients.values():
        clustering_sum += coefficient
    return (
        GraphStats.from_sum(len(vertices), total_arcs // 2, clustering_sum),
        stats,
    )


def label_propagation(
    table: ColumnTable,
    vertices: list[int],
    max_iterations: int,
    hop_attenuation: float,
    node_preference: float,
) -> tuple[dict[int, int], ProcedureStats]:
    """CD: synchronous Leung et al. update over table-read adjacency."""
    stats = ProcedureStats()
    reader = _EdgeReader(table, stats)
    adjacency = {vertex: reader.out_neighbors(vertex).tolist() for vertex in vertices}
    degrees = {vertex: len(adj) for vertex, adj in adjacency.items()}
    labels = {vertex: vertex for vertex in vertices}
    scores = {vertex: 1.0 for vertex in vertices}
    for _iteration in range(max_iterations):
        new_labels: dict[int, int] = {}
        new_scores: dict[int, float] = {}
        changes = 0
        for vertex in vertices:
            neighbors = adjacency[vertex]
            stats.endpoints_visited += len(neighbors)
            if not neighbors:
                new_labels[vertex] = labels[vertex]
                new_scores[vertex] = scores[vertex]
                continue
            weight_by_label: dict[int, float] = {}
            best_score_by_label: dict[int, float] = {}
            for neighbor in neighbors:
                label = labels[neighbor]
                vote = scores[neighbor] * degrees[neighbor] ** node_preference
                weight_by_label[label] = weight_by_label.get(label, 0.0) + vote
                best = best_score_by_label.get(label, float("-inf"))
                if scores[neighbor] > best:
                    best_score_by_label[label] = scores[neighbor]
            best_label = min(
                weight_by_label, key=lambda lbl: (-weight_by_label[lbl], lbl)
            )
            if best_label == labels[vertex]:
                new_labels[vertex] = labels[vertex]
                new_scores[vertex] = scores[vertex]
            else:
                new_labels[vertex] = best_label
                new_scores[vertex] = best_score_by_label[best_label] - hop_attenuation
                changes += 1
        labels, scores = new_labels, new_scores
        if changes == 0:
            break
    return labels, stats


def pagerank(
    table: ColumnTable, vertices: list[int], damping: float, iterations: int
) -> tuple[dict[int, float], ProcedureStats]:
    """PR: fixed damped-update rounds over cached neighbor vectors.

    The adjacency is read from the table once (charged per span);
    each round then folds every vertex's neighbors' shares — the
    per-round scan an embedded SQL procedure actually does.
    """
    stats = ProcedureStats()
    reader = _EdgeReader(table, stats)
    neighbor_cache = {
        vertex: reader.out_neighbors(vertex) for vertex in vertices
    }
    n = len(vertices)
    if n == 0:
        return {}, stats
    base = (1.0 - damping) / n
    ranks = {vertex: 1.0 / n for vertex in vertices}
    for _iteration in range(iterations):
        shares = {
            vertex: ranks[vertex] / int(neighbor_cache[vertex].size)
            for vertex in vertices
            if neighbor_cache[vertex].size
        }
        new_ranks: dict[int, float] = {}
        for vertex in vertices:
            neighbors = neighbor_cache[vertex]
            stats.endpoints_visited += int(neighbors.size)
            total = 0.0
            for neighbor in neighbors.tolist():
                total += shares[neighbor]
            new_ranks[vertex] = base + damping * total
        ranks = new_ranks
    return ranks, stats


def sssp_distances(
    table: ColumnTable, vertices: list[int], source: int
) -> tuple[dict[int, float], ProcedureStats]:
    """Weighted SSSP: Dijkstra over the aligned weight column.

    Every expansion is one range lookup reading both the target and
    weight spans — the column-store analogue of chasing a property
    chain per relationship.
    """
    stats = ProcedureStats()
    reader = _EdgeReader(table, stats)
    distances = {vertex: UNREACHABLE_DISTANCE for vertex in vertices}
    distances[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        dist, vertex = heapq.heappop(heap)
        if dist > distances[vertex]:
            continue  # stale queue entry
        targets, weights = reader.weighted_out_neighbors(vertex)
        for neighbor, weight in zip(targets.tolist(), weights.tolist()):
            candidate = dist + weight
            if candidate < distances[neighbor]:
                distances[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return distances, stats


def _clustering_pass(
    table: ColumnTable, vertices: list[int]
) -> tuple[dict[int, float], int, ProcedureStats]:
    """Per-vertex coefficients, the arcs read, and the work counters.

    Every vertex's neighbor vector is read from the table once; each
    vertex of degree two or more then scans every neighbor's vector
    and counts the edges among its neighbors.
    """
    stats = ProcedureStats()
    reader = _EdgeReader(table, stats)
    neighbor_cache = {
        vertex: reader.out_neighbors(vertex).tolist() for vertex in vertices
    }
    out: dict[int, float] = {}
    total_arcs = 0
    for vertex in vertices:
        neighbors = neighbor_cache[vertex]
        degree = len(neighbors)
        total_arcs += degree
        if degree < 2:
            out[vertex] = 0.0
            continue
        neighbor_lists = [neighbor_cache[neighbor] for neighbor in neighbors]
        for other in neighbor_lists:
            stats.endpoints_visited += len(other)
        out[vertex] = lcc_value(received_links(neighbors, neighbor_lists), degree)
    return out, total_arcs, stats


def local_clustering(
    table: ColumnTable, vertices: list[int]
) -> tuple[dict[int, float], ProcedureStats]:
    """Per-vertex LCC over the table-read neighbor vectors."""
    coefficients, _total_arcs, stats = _clustering_pass(table, vertices)
    return coefficients, stats


def forest_fire(
    table: ColumnTable,
    vertices: list[int],
    num_new_vertices: int,
    p_forward: float,
    max_hops: int,
    seed: int,
) -> tuple[dict[int, list[int]], ProcedureStats]:
    """EVO: per-arrival fires over table-read adjacency."""
    stats = ProcedureStats()
    reader = _EdgeReader(table, stats)
    adjacency = {
        vertex: reader.out_neighbors(vertex).tolist() for vertex in vertices
    }
    existing = sorted(adjacency)
    links: dict[int, list[int]] = {}
    for arrival in evo_ref.evo_arrivals(existing, num_new_vertices, seed):
        links[arrival] = evo_ref.single_fire(
            adjacency, existing, arrival, p_forward, max_hops, seed
        )
        stats.endpoints_visited += sum(
            len(adjacency[burned]) for burned in links[arrival]
        )
    return links, stats


def csr_bfs_distances(
    graph: Graph, start: int
) -> tuple[dict[int, int], ProcedureStats]:
    """:func:`bfs_distances` over the graph's CSR."""
    vertex_ids = graph.vertices
    offsets, targets = graph.csr()
    levels = kernels.csr_bfs_levels(
        offsets, targets, kernels.dense_index(vertex_ids, start)
    )
    reached = levels != UNREACHABLE
    stats = ProcedureStats(
        random_lookups=int(np.count_nonzero(reached)),
        endpoints_visited=int(np.diff(offsets)[reached].sum()),
    )
    return dict(zip(vertex_ids.tolist(), levels.tolist())), stats


def csr_connected_components(
    graph: Graph,
) -> tuple[dict[int, int], ProcedureStats]:
    """:func:`connected_components` over the graph's CSR."""
    vertex_ids = graph.vertices
    offsets, targets = graph.csr()
    labels = vertex_ids[kernels.csr_min_labels(offsets, targets)]
    stats = ProcedureStats(
        random_lookups=len(vertex_ids), endpoints_visited=len(targets)
    )
    return dict(zip(vertex_ids.tolist(), labels.tolist())), stats


def csr_pagerank(
    graph: Graph, damping: float, iterations: int
) -> tuple[dict[int, float], ProcedureStats]:
    """:func:`pagerank` over the graph's CSR."""
    vertex_ids = graph.vertices
    offsets, targets = graph.csr()
    ranks = kernels.csr_pagerank(offsets, targets, damping, iterations)
    stats = ProcedureStats(
        random_lookups=len(vertex_ids),
        endpoints_visited=(1 + iterations) * len(targets),
    )
    return dict(zip(vertex_ids.tolist(), ranks.tolist())), stats
