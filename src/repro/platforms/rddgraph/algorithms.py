"""The Graphalytics algorithms on the GraphX-style API.

Vertex values carry whatever the per-edge ``send`` functions need
(GraphX-style: activity flags, scores, adjacency lists), and every
algorithm reproduces its reference output exactly (PageRank up to the
validator's per-vertex float tolerance).
"""

from __future__ import annotations

from typing import Any

from repro.algorithms import evo as evo_ref
from repro.algorithms.bfs import UNREACHABLE
from repro.algorithms.sssp import UNREACHABLE_DISTANCE
from repro.algorithms.stats import GraphStats
from repro.core.workload import sssp_round_bound
from repro.graph.properties import lcc_value, received_links
from repro.platforms.rddgraph.graphx import GraphXGraph

__all__ = [
    "graphx_bfs",
    "graphx_conn",
    "graphx_cd",
    "graphx_stats",
    "graphx_evo",
    "graphx_pagerank",
    "graphx_sssp",
    "graphx_lcc",
]


def graphx_bfs(graph: GraphXGraph, source: int, max_iterations: int = 100) -> dict[int, int]:
    """BFS distances via the Pregel loop; value = (dist, changed)."""

    def initial(vertex: int) -> tuple[int, bool]:
        if vertex == source:
            return (0, True)
        return (UNREACHABLE, False)

    def vprog(vertex: int, value, incoming) -> tuple[int, bool]:
        dist, _changed = value
        if dist == UNREACHABLE and incoming is not None:
            return (incoming, True)
        return (dist, False)

    def send(src: int, src_value, dst: int) -> list[tuple[int, Any]]:
        dist, changed = src_value
        if changed and dist != UNREACHABLE:
            return [(dst, dist + 1)]
        return []

    result = graph.pregel(initial, vprog, send, min, max_iterations)
    return {v: value[0] for v, value in result.collect()}


def graphx_conn(graph: GraphXGraph, max_iterations: int = 100) -> dict[int, int]:
    """CONN via the built-in connected-components operator."""
    components = graph.connected_components(max_iterations)
    return dict(components.collect())


def graphx_cd(
    graph: GraphXGraph,
    degrees: dict[int, int],
    max_iterations: int = 10,
    hop_attenuation: float = 0.1,
    node_preference: float = 0.1,
) -> dict[int, int]:
    """CD (Leung et al.) via Pregel with vote lists as messages.

    Vertex value: ``(label, score, iteration)``. Messages merge by
    concatenating vote lists, so the receiver sees the full per-label
    breakdown (no lossless scalar combiner exists for CD).
    """

    def initial(vertex: int) -> tuple[int, float, int]:
        return (vertex, 1.0, 0)

    def send(src: int, src_value, dst: int) -> list[tuple[int, Any]]:
        label, score, iteration = src_value
        if iteration >= max_iterations:
            return []
        return [(dst, ((label, score, degrees[src]),))]

    def merge(a: tuple, b: tuple) -> tuple:
        return a + b

    def vprog(vertex: int, value, incoming) -> tuple[int, float, int]:
        label, score, iteration = value
        if incoming is None:
            return (label, score, iteration + 1)
        weight_by_label: dict[int, float] = {}
        best_score_by_label: dict[int, float] = {}
        for other_label, other_score, other_degree in incoming:
            vote = other_score * other_degree ** node_preference
            weight_by_label[other_label] = (
                weight_by_label.get(other_label, 0.0) + vote
            )
            best = best_score_by_label.get(other_label, float("-inf"))
            if other_score > best:
                best_score_by_label[other_label] = other_score
        best_label = min(weight_by_label, key=lambda lbl: (-weight_by_label[lbl], lbl))
        if best_label != label:
            return (
                best_label,
                best_score_by_label[best_label] - hop_attenuation,
                iteration + 1,
            )
        return (label, score, iteration + 1)

    result = graph.pregel(initial, vprog, send, merge, max_iterations + 1)
    return {v: value[0] for v, value in result.collect()}


def graphx_pagerank(
    graph: GraphXGraph,
    degrees: dict[int, int],
    damping: float = 0.85,
    iterations: int = 10,
) -> dict[int, float]:
    """PageRank via Pregel; value = ``(rank, iteration)``.

    All-active fixed-iteration semantics: every vertex with an edge
    sends ``rank / degree`` along every arc each round until the
    shared iteration counter reaches ``iterations``, at which point no
    messages flow and the Pregel loop terminates. Isolated vertices
    still pass through ``vprog`` (the left outer join covers every
    vertex) and settle at ``(1 - d) / n``.
    """
    n = len(degrees)
    base = (1.0 - damping) / n if n else 0.0

    def initial(vertex: int) -> tuple[float, int]:
        return (1.0 / n, 0)

    def send(src: int, src_value, dst: int) -> list[tuple[int, Any]]:
        rank, iteration = src_value
        if iteration >= iterations:
            return []
        return [(dst, rank / degrees[src])]

    def merge(a: float, b: float) -> float:
        return a + b

    def vprog(vertex: int, value, incoming) -> tuple[float, int]:
        _rank, iteration = value
        total = incoming if incoming is not None else 0.0
        return (base + damping * total, iteration + 1)

    result = graph.pregel(initial, vprog, send, merge, iterations + 1)
    return {v: value[0] for v, value in result.collect()}


def graphx_sssp(
    graph: GraphXGraph,
    source: int,
    weights: dict[int, dict[int, float]],
) -> dict[int, float]:
    """Weighted SSSP via Pregel; value = ``(distance, changed)``.

    Label-correcting relaxation: vertices whose distance improved last
    round offer ``distance + w(src, dst)`` along every arc; receivers
    adopt a strictly smaller merged (minimum) offer. Positive weights
    guarantee the min-plus fixpoint is reached within ``n`` rounds.
    """

    def initial(vertex: int) -> tuple[float, bool]:
        if vertex == source:
            return (0.0, True)
        return (UNREACHABLE_DISTANCE, False)

    def send(src: int, src_value, dst: int) -> list[tuple[int, Any]]:
        distance, changed = src_value
        if changed:
            return [(dst, distance + weights[src][dst])]
        return []

    def vprog(vertex: int, value, incoming) -> tuple[float, bool]:
        distance, _changed = value
        if incoming is not None and incoming < distance:
            return (incoming, True)
        return (distance, False)

    bound = sssp_round_bound(len(weights))
    result = graph.pregel(initial, vprog, send, min, bound)
    return {v: value[0] for v, value in result.collect()}


def _neighbor_list_join(
    graph: GraphXGraph, adjacency: dict[int, list[int]], name: str
):
    """Ship every adjacency list across its edges; join it to the vertex.

    One ``aggregate_messages`` pass (vertices of degree < 2 send
    nothing: their lists cannot close a triangle), then a left outer
    join of each vertex's own list with the lists it received. Returns
    ``(with_adjacency, neighbor_lists, joined)`` for the caller to fold
    and unpersist.
    """
    with_adjacency = graph.map_vertices(lambda v, _old: adjacency[v])

    def send(src: int, src_value, dst: int) -> list[tuple[int, Any]]:
        if len(src_value) >= 2:
            return [(dst, (src_value,))]
        return []

    def merge(a: tuple, b: tuple) -> tuple:
        return a + b

    neighbor_lists = with_adjacency.aggregate_messages(send, merge)
    joined = with_adjacency.vertices.left_outer_join(neighbor_lists, name=name)
    return with_adjacency, neighbor_lists, joined


def _local_clustering(record) -> float:
    """Coefficient of one joined ``(vertex, (own, lists))`` record."""
    _vertex, (own, lists) = record
    degree = len(own)
    if degree < 2 or not lists:
        return 0.0
    return lcc_value(received_links(own, lists), degree)


def graphx_lcc(
    graph: GraphXGraph, adjacency: dict[int, list[int]]
) -> dict[int, float]:
    """LCC via one ``aggregate_messages`` neighbor-list exchange.

    The STATS triangle pass, but emitting every vertex's coefficient
    instead of folding them into one mean; the shared
    :func:`~repro.graph.properties.lcc_value` expression keeps the
    floats bitwise identical across platforms.
    """
    with_adjacency, neighbor_lists, joined = _neighbor_list_join(
        graph, adjacency, "lcc-join"
    )
    coefficients = joined.map(
        lambda record: (record[0], _local_clustering(record)), name="local-lcc"
    )
    output = dict(coefficients.collect())
    coefficients.unpersist()
    joined.unpersist()
    neighbor_lists.unpersist()
    with_adjacency.vertices.unpersist()
    return output


def graphx_stats(
    graph: GraphXGraph, adjacency: dict[int, list[int]]
) -> GraphStats:
    """STATS via built-in counts plus a neighbor-list aggregation.

    Uses the built-in vertex/edge counting operators the paper
    mentions, then one ``aggregate_messages`` pass that ships each
    vertex's adjacency across its edges for triangle counting.
    """
    num_vertices = graph.num_vertices()
    num_edges = graph.num_edges() // 2  # symmetric arcs
    with_adjacency, neighbor_lists, joined = _neighbor_list_join(
        graph, adjacency, "cc-join"
    )
    contributions = joined.map(
        lambda record: ("cc", _local_clustering(record)), name="local-cc"
    )
    total = contributions.reduce_by_key(lambda a, b: a + b, name="cc-sum").collect()
    joined.unpersist()
    neighbor_lists.unpersist()
    with_adjacency.vertices.unpersist()
    clustering_sum = total[0][1] if total else 0.0
    return GraphStats.from_sum(num_vertices, num_edges, clustering_sum)


def graphx_evo(
    graph: GraphXGraph,
    adjacency: dict[int, list[int]],
    ambassadors: dict[int, int],
    p_forward: float,
    max_hops: int,
    seed: int,
) -> dict[int, list[int]]:
    """EVO via Pregel burn messages (deterministic shared kernel).

    Vertex value: ``(burned, fresh)`` dicts mapping arrival → depth;
    ``fresh`` holds the arrivals that burned the vertex in the last
    round and spread this round.
    """
    by_ambassador: dict[int, dict[int, int]] = {}
    for arrival, ambassador in ambassadors.items():
        by_ambassador.setdefault(ambassador, {})[arrival] = 0

    def initial(vertex: int) -> tuple[dict, dict]:
        seeded = dict(by_ambassador.get(vertex, {}))
        return (dict(seeded), dict(seeded))

    # ``send`` runs once per (edge, arrival); the victim set only
    # depends on (arrival, src), so memoize the kernel call.
    victim_cache: dict[tuple[int, int], frozenset] = {}

    def victims_of(arrival: int, src: int) -> frozenset:
        key = (arrival, src)
        if key not in victim_cache:
            candidates = sorted(adjacency[src])
            budget = evo_ref.burn_budget(seed, arrival, src, p_forward)
            victim_cache[key] = frozenset(
                evo_ref.burn_victims(candidates, budget, seed, arrival, src)
            )
        return victim_cache[key]

    def send(src: int, src_value, dst: int) -> list[tuple[int, Any]]:
        _burned, fresh = src_value
        out = []
        for arrival, depth in sorted(fresh.items()):
            if depth >= max_hops:
                continue
            if dst in victims_of(arrival, src):
                out.append((dst, ((arrival, depth + 1),)))
        return out

    def merge(a: tuple, b: tuple) -> tuple:
        return a + b

    def vprog(vertex: int, value, incoming) -> tuple[dict, dict]:
        burned, _old_fresh = value
        burned = dict(burned)
        fresh: dict[int, int] = {}
        if incoming:
            for arrival, depth in sorted(incoming):
                if arrival not in burned:
                    burned[arrival] = depth
                    fresh[arrival] = depth
        return (burned, fresh)

    result = graph.pregel(initial, vprog, send, merge, max_hops + 1)
    return evo_ref.evo_links(
        ambassadors,
        ((vertex, burned) for vertex, (burned, _fresh) in result.collect()),
    )
