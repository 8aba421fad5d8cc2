"""The Graphalytics algorithms as embedded graph-database procedures.

Each runs single-threaded against the record store, the way embedded
Neo4j algorithms do: no network, no barriers, but every neighbor
expansion chases relationship-chain pointers (charged as random
accesses by the store).

BFS, CONN and PR also run whole over the uploaded graph's CSR
(:meth:`~repro.graph.graph.Graph.csr`), whose row ``i`` is node
``i``'s relationship chain: ``chain_bfs``, ``chain_conn`` and
``chain_pagerank`` return what ``db_bfs``, ``db_conn`` and
``db_pagerank`` return and charge the same totals, one
``charge_compute`` for the ``node_ids()`` scan (and PageRank's
per-round scans) and one ``charge_random_access`` for the
``1 + len(chain)`` accesses of every chain walked. The counts are
integers, so one total equals the scalar call sequence bit for bit.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.algorithms import evo as evo_ref
from repro.algorithms.bfs import UNREACHABLE
from repro.algorithms.sssp import UNREACHABLE_DISTANCE
from repro.algorithms.stats import GraphStats
from repro.core.cost import CostMeter
from repro.graph.graph import Graph
from repro.graph.kernels import (
    csr_bfs_levels,
    csr_min_labels,
    csr_pagerank,
    dense_index,
)
from repro.graph.properties import lcc_value, received_links
from repro.platforms.graphdb.store import GraphStore
from repro.platforms.graphdb.traversal import TraversalDescription

__all__ = [
    "db_bfs",
    "db_conn",
    "db_cd",
    "db_stats",
    "db_evo",
    "db_pagerank",
    "db_sssp",
    "db_lcc",
    "chain_bfs",
    "chain_conn",
    "chain_pagerank",
]


def db_bfs(store: GraphStore, source: int) -> dict[int, int]:
    """BFS distances via the traversal framework."""
    distances = {node: UNREACHABLE for node in store.node_ids()}
    traversal = TraversalDescription().breadth_first()
    for node, depth in traversal.traverse(store, source):
        distances[node] = depth
    return distances


def db_conn(store: GraphStore) -> dict[int, int]:
    """Connected components: one traversal per undiscovered component.

    Node ids are scanned in ascending order, so the first node of
    each component encountered is its minimum id — which is the
    component label the benchmark expects.
    """
    labels: dict[int, int] = {}
    traversal = TraversalDescription().breadth_first()
    for node in store.node_ids():
        if node in labels:
            continue
        for member, _depth in traversal.traverse(store, node):
            labels[member] = node
    return labels


def db_cd(
    store: GraphStore,
    max_iterations: int,
    hop_attenuation: float,
    node_preference: float,
) -> dict[int, int]:
    """CD: synchronous Leung et al. label propagation over the store."""
    nodes = store.node_ids()
    adjacency = {node: store.neighbors(node) for node in nodes}
    degrees = {node: len(neighbors) for node, neighbors in adjacency.items()}
    labels = {node: node for node in nodes}
    scores = {node: 1.0 for node in nodes}
    for _iteration in range(max_iterations):
        new_labels: dict[int, int] = {}
        new_scores: dict[int, float] = {}
        changes = 0
        for node in nodes:
            neighbors = adjacency[node]
            store._charge_scan(1 + len(neighbors))
            if not neighbors:
                new_labels[node] = labels[node]
                new_scores[node] = scores[node]
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
            if best_label == labels[node]:
                new_labels[node] = labels[node]
                new_scores[node] = scores[node]
            else:
                new_labels[node] = best_label
                new_scores[node] = best_score_by_label[best_label] - hop_attenuation
                changes += 1
        labels, scores = new_labels, new_scores
        if changes == 0:
            break
    return labels


def db_stats(store: GraphStore) -> GraphStats:
    """STATS: the :func:`db_lcc` scans, folded into one mean."""
    coefficients = db_lcc(store)
    clustering_sum = 0.0
    for coefficient in coefficients.values():
        clustering_sum += coefficient
    return GraphStats.from_sum(
        store.num_nodes, store.num_relationships, clustering_sum
    )


def db_pagerank(
    store: GraphStore, damping: float, iterations: int
) -> dict[int, float]:
    """PageRank: fixed damped-update rounds over cached adjacency.

    The adjacency is materialized once (pointer-chased, charged by the
    store); each round then scans every node and folds its neighbors'
    shares — the per-round work an embedded procedure actually does.
    """
    nodes = store.node_ids()
    adjacency = {node: store.neighbors(node) for node in nodes}
    n = len(nodes)
    if n == 0:
        return {}
    base = (1.0 - damping) / n
    ranks = {node: 1.0 / n for node in nodes}
    for _iteration in range(iterations):
        shares = {
            node: ranks[node] / len(adjacency[node])
            for node in nodes
            if adjacency[node]
        }
        new_ranks: dict[int, float] = {}
        for node in nodes:
            store._charge_scan(1 + len(adjacency[node]))
            total = 0.0
            for neighbor in adjacency[node]:
                total += shares[neighbor]
            new_ranks[node] = base + damping * total
        ranks = new_ranks
    return ranks


def db_sssp(store: GraphStore, source: int) -> dict[int, float]:
    """Weighted SSSP: Dijkstra straight over the record store.

    Every expansion walks the node's relationship chain *and* each
    relationship's weight property — the pointer-chasing access
    pattern that makes graph databases random-access bound.
    """
    distances = {node: UNREACHABLE_DISTANCE for node in store.node_ids()}
    distances[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        dist, node = heapq.heappop(heap)
        if dist > distances[node]:
            continue  # stale queue entry
        for neighbor, weight in store.weighted_neighbors(node):
            candidate = dist + weight
            if candidate < distances[neighbor]:
                distances[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return distances


def db_lcc(store: GraphStore) -> dict[int, float]:
    """LCC: per-node neighborhood intersections over the store.

    Every neighbor's relationship chain is scanned (and charged) once
    per node of degree two or more.
    """
    nodes = store.node_ids()
    neighbor_sets = {node: set(store.neighbors(node)) for node in nodes}
    out: dict[int, float] = {}
    for node in nodes:
        neighbors = neighbor_sets[node]
        degree = len(neighbors)
        if degree < 2:
            out[node] = 0.0
            continue
        for u in neighbors:
            store._charge_scan(len(neighbor_sets[u]))
        links = received_links(neighbors, (neighbor_sets[u] for u in neighbors))
        out[node] = lcc_value(links, degree)
    return out


def db_evo(
    store: GraphStore,
    num_new_vertices: int,
    p_forward: float,
    max_hops: int,
    seed: int,
) -> dict[int, list[int]]:
    """EVO: per-arrival forest fires via store traversals."""
    existing = store.node_ids()
    adjacency = {node: store.neighbors(node) for node in existing}
    links: dict[int, list[int]] = {}
    for arrival in evo_ref.evo_arrivals(existing, num_new_vertices, seed):
        links[arrival] = evo_ref.single_fire(
            adjacency, existing, arrival, p_forward, max_hops, seed
        )
        store._charge_scan(sum(len(adjacency[b]) for b in links[arrival]))
    return links


def chain_bfs(graph: Graph, meter: CostMeter, source: int) -> dict[int, int]:
    """:func:`db_bfs` over the chain CSR: every reached node's chain is
    walked once."""
    node_ids = graph.vertices
    offsets, neighbors = graph.csr()
    meter.charge_compute(0, len(node_ids))
    levels = csr_bfs_levels(offsets, neighbors, dense_index(node_ids, source))
    reached = levels != UNREACHABLE
    meter.charge_random_access(
        0, int(np.count_nonzero(reached) + np.diff(offsets)[reached].sum())
    )
    return dict(zip(node_ids.tolist(), levels.tolist()))


def chain_conn(graph: Graph, meter: CostMeter) -> dict[int, int]:
    """:func:`db_conn` over the chain CSR: every node's chain is walked
    once, and each node is labeled with its component's minimum id."""
    node_ids = graph.vertices
    offsets, neighbors = graph.csr()
    meter.charge_compute(0, len(node_ids))
    meter.charge_random_access(0, len(node_ids) + len(neighbors))
    labels = node_ids[csr_min_labels(offsets, neighbors)]
    return dict(zip(node_ids.tolist(), labels.tolist()))


def chain_pagerank(
    graph: Graph, meter: CostMeter, damping: float, iterations: int
) -> dict[int, float]:
    """:func:`db_pagerank` over the chain CSR: the chains are walked
    once, and each round scans every node and its neighbors."""
    node_ids = graph.vertices
    offsets, neighbors = graph.csr()
    n, arcs = len(node_ids), len(neighbors)
    meter.charge_compute(0, n + iterations * (n + arcs))
    meter.charge_random_access(0, n + arcs)
    ranks = csr_pagerank(offsets, neighbors, damping, iterations)
    return dict(zip(node_ids.tolist(), ranks.tolist()))
