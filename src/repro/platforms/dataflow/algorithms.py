"""The Graphalytics algorithms as dataflow programs.

BFS, CONN, and weighted SSSP are genuine delta iterations
(frontier-sized worksets); CD and PR keep every vertex in the workset
for their fixed iteration counts (label propagation and damped rank
updates are dense by nature); STATS and LCC are single
expand + aggregate pipelines; EVO runs one delta round per fire hop.
Outputs match the references exactly (PR to per-vertex tolerance).
"""

from __future__ import annotations

from repro.algorithms import evo as evo_ref
from repro.algorithms.bfs import UNREACHABLE
from repro.algorithms.sssp import UNREACHABLE_DISTANCE
from repro.algorithms.stats import GraphStats
from repro.core.workload import sssp_round_bound
from repro.graph.properties import lcc_value, received_links
from repro.platforms.dataflow.engine import DataflowEngine

__all__ = [
    "dataflow_bfs",
    "dataflow_conn",
    "dataflow_cd",
    "dataflow_stats",
    "dataflow_evo",
    "dataflow_pagerank",
    "dataflow_sssp",
    "dataflow_lcc",
]


def dataflow_bfs(engine: DataflowEngine, source: int) -> dict[int, int]:
    """BFS distances as a delta iteration (workset = the frontier)."""

    def step(flow: DataflowEngine, workset):
        candidates = flow.aggregate(
            flow.expand(
                workset,
                emit=lambda vertex, dist, neighbor: [(neighbor, dist + 1)],
            ),
            combine=min,
        )
        deltas = flow.join_solution(
            candidates,
            accept=lambda key, current, candidate: (
                candidate if current == UNREACHABLE else None
            ),
        )
        flow.update_solution(deltas)
        return sorted(deltas.items())

    initial = {vertex: UNREACHABLE for vertex in engine.adjacency}
    initial[source] = 0
    engine.delta_iteration(initial, [(source, 0)], step)
    return dict(engine.solution)


def dataflow_conn(engine: DataflowEngine) -> dict[int, int]:
    """CONN as a delta iteration over shrinking label improvements."""

    def step(flow: DataflowEngine, workset):
        candidates = flow.aggregate(
            flow.expand(
                workset,
                emit=lambda vertex, label, neighbor: [(neighbor, label)],
            ),
            combine=min,
        )
        deltas = flow.join_solution(
            candidates,
            accept=lambda key, current, candidate: (
                candidate if candidate < current else None
            ),
        )
        flow.update_solution(deltas)
        return sorted(deltas.items())

    initial = {vertex: vertex for vertex in engine.adjacency}
    engine.delta_iteration(initial, sorted(initial.items()), step)
    return dict(engine.solution)


def dataflow_cd(
    engine: DataflowEngine,
    max_iterations: int,
    hop_attenuation: float,
    node_preference: float,
) -> dict[int, int]:
    """CD: dense label propagation expressed as bounded iterations.

    Every vertex stays in the workset for exactly ``max_iterations``
    rounds (the algorithm is not delta-sparse); the engine still only
    moves vote records, and the stop-on-stability short cut applies.
    """
    degrees = {vertex: len(adj) for vertex, adj in engine.adjacency.items()}
    state = {"remaining": max_iterations}

    def step(flow: DataflowEngine, workset):
        if state["remaining"] <= 0:
            return []
        state["remaining"] -= 1
        votes = flow.expand(
            workset,
            emit=lambda vertex, value, neighbor: [
                (neighbor, ((value[0], value[1], degrees[vertex]),))
            ],
        )
        ballots = flow.aggregate(votes, combine=lambda a, b: a + b)

        changed = 0

        def accept(key, current, ballot):
            nonlocal changed
            label, score = current
            weight_by_label: dict[int, float] = {}
            best_score_by_label: dict[int, float] = {}
            for other_label, other_score, other_degree in ballot:
                vote = other_score * other_degree ** node_preference
                weight_by_label[other_label] = (
                    weight_by_label.get(other_label, 0.0) + vote
                )
                best = best_score_by_label.get(other_label, float("-inf"))
                if other_score > best:
                    best_score_by_label[other_label] = other_score
            best_label = min(
                weight_by_label, key=lambda lbl: (-weight_by_label[lbl], lbl)
            )
            if best_label != label:
                changed += 1
                return (best_label, best_score_by_label[best_label] - hop_attenuation)
            return (label, score)

        deltas = flow.join_solution(ballots, accept)
        flow.update_solution(deltas)
        if changed == 0:
            # Stable labels: recomputation is a fixpoint; stop early,
            # exactly like the reference.
            return []
        return sorted(flow.solution.items())

    initial = {vertex: (vertex, 1.0) for vertex in engine.adjacency}
    workset = sorted(initial.items()) if max_iterations > 0 else []
    engine.delta_iteration(initial, workset, step)
    return {vertex: value[0] for vertex, value in engine.solution.items()}


def dataflow_stats(engine: DataflowEngine) -> GraphStats:
    """STATS: the :func:`dataflow_lcc` pipeline, folded into one mean."""
    adjacency = engine.adjacency
    coefficients = dataflow_lcc(engine)
    return GraphStats.from_sum(
        len(adjacency),
        sum(len(adj) for adj in adjacency.values()) // 2,
        sum(coefficients.values()),
    )


def dataflow_pagerank(
    engine: DataflowEngine, damping: float, iterations: int
) -> dict[int, float]:
    """PR: dense damped-rank rounds expressed as bounded iterations.

    Like CD, every vertex stays in the workset for the fixed round
    count; share records move through expand + aggregate, and vertices
    with no incoming share outer-join to a zero total so isolated
    vertices still settle at the base rank.
    """
    adjacency = engine.adjacency
    degrees = {vertex: len(adj) for vertex, adj in adjacency.items()}
    n = len(adjacency)
    base = (1.0 - damping) / n if n else 0.0
    state = {"remaining": iterations}

    def step(flow: DataflowEngine, workset):
        if state["remaining"] <= 0:
            return []
        state["remaining"] -= 1
        totals = flow.aggregate(
            flow.expand(
                workset,
                emit=lambda vertex, rank, neighbor: [
                    (neighbor, rank / degrees[vertex])
                ],
            ),
            combine=lambda a, b: a + b,
        )
        for vertex in adjacency:
            totals.setdefault(vertex, 0.0)  # outer join: no incoming share
        deltas = flow.join_solution(
            totals,
            accept=lambda key, current, total: base + damping * total,
        )
        flow.update_solution(deltas)
        return sorted(flow.solution.items())

    initial = {vertex: 1.0 / n for vertex in adjacency} if n else {}
    workset = sorted(initial.items()) if iterations > 0 else []
    engine.delta_iteration(initial, workset, step, max_iterations=iterations + 1)
    return dict(engine.solution)


def dataflow_sssp(
    engine: DataflowEngine, source: int, weights: dict[int, dict[int, float]]
) -> dict[int, float]:
    """Weighted SSSP as a delta iteration (workset = improved vertices).

    Label-correcting relaxation: improved distances expand along
    weighted edges, candidates keep the minimum offer, and only strict
    improvements re-enter the workset — the positive-weight fixpoint
    is the Dijkstra distance exactly.
    """

    def step(flow: DataflowEngine, workset):
        candidates = flow.aggregate(
            flow.expand(
                workset,
                emit=lambda vertex, dist, neighbor: [
                    (neighbor, dist + weights[vertex][neighbor])
                ],
            ),
            combine=min,
        )
        deltas = flow.join_solution(
            candidates,
            accept=lambda key, current, candidate: (
                candidate if candidate < current else None
            ),
        )
        flow.update_solution(deltas)
        return sorted(deltas.items())

    initial = {vertex: UNREACHABLE_DISTANCE for vertex in engine.adjacency}
    initial[source] = 0.0
    engine.delta_iteration(
        initial,
        [(source, 0.0)],
        step,
        max_iterations=sssp_round_bound(len(engine.adjacency)),
    )
    return dict(engine.solution)


def dataflow_lcc(engine: DataflowEngine) -> dict[int, float]:
    """LCC as one expand + aggregate pipeline (no iteration).

    Every vertex of degree two or more ships its neighbor list to its
    neighbors; the solution set keeps each vertex's coefficient.
    Vertices with degree below two keep their initial 0.0.
    """
    adjacency = engine.adjacency

    def step(flow: DataflowEngine, workset):
        shipped = flow.expand(
            workset,
            emit=lambda vertex, adj, neighbor: [(neighbor, (adj,))]
            if len(adj) >= 2
            else [],
        )
        lists = flow.aggregate(shipped, combine=lambda a, b: a + b)

        def accept(key, current, neighbor_lists):
            own = adjacency[key]
            degree = len(own)
            if degree < 2:
                return None
            return lcc_value(received_links(own, neighbor_lists), degree)

        flow.update_solution(flow.join_solution(lists, accept))
        return []

    initial = {vertex: 0.0 for vertex in adjacency}
    workset = [(vertex, adjacency[vertex]) for vertex in sorted(adjacency)]
    engine.delta_iteration(initial, workset, step)
    return dict(engine.solution)


def dataflow_evo(
    engine: DataflowEngine,
    ambassadors: dict[int, int],
    p_forward: float,
    max_hops: int,
    seed: int,
) -> dict[int, list[int]]:
    """EVO: one delta round per fire hop, burn attempts as records."""
    adjacency = engine.adjacency
    victim_cache: dict[tuple[int, int], frozenset] = {}

    def victims_of(arrival: int, at_vertex: int) -> frozenset:
        key = (arrival, at_vertex)
        if key not in victim_cache:
            candidates = sorted(adjacency[at_vertex])
            budget = evo_ref.burn_budget(seed, arrival, at_vertex, p_forward)
            victim_cache[key] = frozenset(
                evo_ref.burn_victims(candidates, budget, seed, arrival, at_vertex)
            )
        return victim_cache[key]

    def step(flow: DataflowEngine, workset):
        attempts = flow.expand(
            workset,
            emit=lambda vertex, fresh, neighbor: [
                (
                    neighbor,
                    tuple(
                        (arrival, depth + 1)
                        for arrival, depth in fresh
                        if depth < max_hops
                        and neighbor in victims_of(arrival, vertex)
                    ),
                )
            ],
        )
        merged = flow.aggregate(
            ((key, value) for key, value in attempts if value),
            combine=lambda a, b: a + b,
        )

        fresh_by_vertex: dict[int, dict[int, int]] = {}

        def accept(key, current, burn_attempts):
            fresh: dict[int, int] = {}
            for arrival, depth in sorted(burn_attempts):
                if arrival not in current and arrival not in fresh:
                    fresh[arrival] = depth
            if not fresh:
                return None
            fresh_by_vertex[key] = fresh
            return {**current, **fresh}

        deltas = flow.join_solution(merged, accept)
        flow.update_solution(deltas)
        return [
            (vertex, tuple(sorted(fresh_by_vertex[vertex].items())))
            for vertex in sorted(fresh_by_vertex)
        ]

    by_ambassador: dict[int, dict[int, int]] = {}
    for arrival, ambassador in ambassadors.items():
        by_ambassador.setdefault(ambassador, {})[arrival] = 0
    initial = {
        vertex: dict(by_ambassador.get(vertex, {})) for vertex in adjacency
    }
    workset = [
        (vertex, tuple(sorted(burns.items())))
        for vertex, burns in sorted(by_ambassador.items())
    ]
    engine.delta_iteration(initial, workset, step)
    return evo_ref.evo_links(ambassadors, engine.solution.items())
