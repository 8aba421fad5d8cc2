"""Graph partitioning strategies for the BSP engine.

The paper's network choke point ends with remedies: "graph workloads
call for methods that may reduce the network communication in
distributed algorithms. Examples of possible directions are
replication schemes, data compression, and advanced (e.g., min-cut)
graph partitioning methods." This module implements the partitioning
direction so it can be measured (see the choke-point ablation):

* :func:`hash_partition` — Giraph's default: uniform, structure-blind;
* :func:`range_partition` — contiguous id blocks; exploits id
  locality when vertex ids correlate with communities (Datagen ids
  do, SNAP-style renumberings often do);
* :func:`greedy_partition` — streaming linear deterministic greedy
  (LDG, Stanton & Kliot): place each vertex with the partition holding
  most of its already-placed neighbors, damped by a capacity penalty —
  a practical min-cut-style heuristic that runs in one pass.

All strategies return ``{vertex: worker}`` maps accepted by
:class:`~repro.platforms.pregel.engine.PregelEngine`.
"""

from __future__ import annotations

from collections import deque

from repro.graph.graph import Graph
from repro.graph.kernels import hash_worker

__all__ = [
    "hash_partition",
    "range_partition",
    "greedy_partition",
    "edge_cut_fraction",
    "partition_balance",
]


def hash_partition(graph: Graph, num_workers: int) -> dict[int, int]:
    """Giraph's default: multiplicative hash of the vertex id."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    return {
        v: hash_worker(v, num_workers)
        for v in graph.to_undirected().vertices.tolist()
    }


def range_partition(graph: Graph, num_workers: int) -> dict[int, int]:
    """Contiguous equal-size blocks of the sorted vertex ids."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    vertices = [int(v) for v in graph.to_undirected().vertices]
    block = max(1, -(-len(vertices) // num_workers))
    return {
        vertex: min(index // block, num_workers - 1)
        for index, vertex in enumerate(vertices)
    }


def _bfs_stream_order(adjacency: dict[int, list[int]]) -> list[int]:
    """Community-coherent streaming order: BFS from each unseen vertex.

    Streaming LDG profits when a vertex's neighbors are mostly already
    placed; BFS order visits each community contiguously, while raw id
    order interleaves them.
    """
    seen: set[int] = set()
    order: list[int] = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        while queue:
            vertex = queue.popleft()
            order.append(vertex)
            for neighbor in adjacency[vertex]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
    return order


def greedy_partition(
    graph: Graph, num_workers: int, slack: float = 1.05
) -> dict[int, int]:
    """Streaming LDG: a one-pass min-cut-style heuristic.

    Vertices stream in BFS order (see :func:`_bfs_stream_order`); each
    goes to the partition maximizing
    ``|neighbors already there| * (1 - size/capacity)``. ``slack``
    allows partitions to exceed the perfectly balanced size by a few
    percent, which is what buys the cut reduction. On graphs with
    pronounced community structure this cuts an order of magnitude
    fewer edges than hashing; on expander-like graphs the gain is
    necessarily modest (no good cut exists).
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if slack < 1.0:
        raise ValueError("slack must be >= 1")
    adjacency = graph.to_undirected().adjacency()
    capacity = slack * len(adjacency) / num_workers if adjacency else 1.0
    placement: dict[int, int] = {}
    sizes = [0] * num_workers
    for vertex in _bfs_stream_order(adjacency):
        placed_neighbors = [0] * num_workers
        for neighbor in adjacency[vertex]:
            worker = placement.get(neighbor)
            if worker is not None:
                placed_neighbors[worker] += 1
        best_worker = 0
        best_score = float("-inf")
        for worker in range(num_workers):
            if sizes[worker] >= capacity:
                continue
            score = placed_neighbors[worker] * (1.0 - sizes[worker] / capacity)
            if score > best_score:
                best_score = score
                best_worker = worker
        placement[vertex] = best_worker
        sizes[best_worker] += 1
    return placement


def edge_cut_fraction(graph: Graph, placement: dict[int, int]) -> float:
    """Fraction of edges whose endpoints live on different workers.

    This is the quantity partitioning tries to minimize; it is a
    direct proxy for the BSP engines' remote-message volume.
    """
    undirected = graph.to_undirected()
    if undirected.num_edges == 0:
        return 0.0
    cut = sum(
        1
        for source, target in undirected.iter_edges()
        if placement[source] != placement[target]
    )
    return cut / undirected.num_edges


def partition_balance(placement: dict[int, int], num_workers: int) -> float:
    """Max partition size over the perfectly balanced size (>= 1)."""
    if not placement:
        return 1.0
    sizes = [0] * num_workers
    for worker in placement.values():
        sizes[worker] += 1
    return max(sizes) / (len(placement) / num_workers)
