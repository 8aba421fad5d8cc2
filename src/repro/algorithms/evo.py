"""EVO: graph evolution under the forest-fire model.

The paper: "The graph evolution (EVO) algorithm predicts the evolution
of the graph according to the 'forest fire' model [11]" — reference
[11] being Leskovec, Kleinberg, Faloutsos, *Graphs over time* (KDD
2005).

The forest-fire model adds new vertices. Each new vertex picks an
*ambassador* among the existing vertices and starts a "fire": from
each burning vertex it burns a deterministically-sized set of
not-yet-burned neighbors (geometrically distributed with forward
burning probability ``p``), recursively up to ``max_hops``. The new
vertex then links to every burned vertex.

Benchmark variant: arrivals are **independent** — every new vertex's
fire burns over the *original* graph, so arrivals can be processed in
parallel. This is the batch formulation used by graph-processing
benchmark implementations of EVO (a strictly sequential model cannot
be expressed as a data-parallel workload); it preserves the
computational pattern the algorithm stresses (randomized multi-source
expansion) while making the output well-defined across platforms.

All randomness is derived from a pure hash of ``(seed, new_vertex,
burning_vertex)``; any implementation following this specification —
including the Pregel, MapReduce, RDD, and graph-database versions in
:mod:`repro.platforms` — reproduces the byte-identical evolved graph,
which is what lets the Output Validator check EVO results exactly.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.graph.graph import Graph

__all__ = [
    "forest_fire_evolution",
    "forest_fire_links",
    "ambassador_for",
    "evo_arrivals",
    "evo_links",
    "burn_budget",
    "burn_victims",
    "single_fire",
]

#: Default forward burning probability from the paper's model.
DEFAULT_P_FORWARD = 0.3
#: Default cap on fire propagation depth (keeps EVO bounded on the
#: highly connected SNB-like graphs).
DEFAULT_MAX_HOPS = 2


def _hash_fraction(*parts: int) -> float:
    """Deterministic uniform-[0,1) value from integer parts."""
    payload = ":".join(str(int(part)) for part in parts).encode("ascii")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def ambassador_for(seed: int, new_vertex: int, existing: list[int]) -> int:
    """Deterministic ambassador choice for a new vertex.

    ``existing`` must be the sorted list of original vertex ids; all
    platform implementations pass the same list and therefore agree.
    """
    if not existing:
        raise ValueError("cannot pick an ambassador in an empty graph")
    index = int(_hash_fraction(seed, new_vertex, 0xA3BA55AD) * len(existing))
    return existing[min(index, len(existing) - 1)]


def evo_arrivals(
    existing: list[int], num_new_vertices: int, seed: int
) -> dict[int, int]:
    """Every arrival's ambassador: ``{new_vertex: ambassador}``.

    New vertex ids continue after the largest of the sorted
    ``existing`` ids, in arrival order. This is the step every platform
    implementation starts from; the reference derives its own.
    """
    if num_new_vertices < 0:
        raise ValueError("num_new_vertices must be >= 0")
    if not existing:
        raise ValueError("cannot evolve an empty graph")
    next_id = existing[-1] + 1
    return {
        arrival: ambassador_for(seed, arrival, existing)
        for arrival in range(next_id, next_id + num_new_vertices)
    }


def evo_links(
    arrivals: Iterable[int], burned_by: Iterable[tuple[int, Iterable[int]]]
) -> dict[int, list[int]]:
    """EVO's output from per-vertex burns: ``{new_vertex: [targets]}``.

    ``burned_by`` pairs each vertex with the arrivals whose fire burned
    it; the result keeps the order of ``arrivals`` and sorts each
    arrival's targets.
    """
    links: dict[int, list[int]] = {arrival: [] for arrival in arrivals}
    for vertex, burned in burned_by:
        for arrival in burned:
            links[arrival].append(vertex)
    return {arrival: sorted(targets) for arrival, targets in links.items()}


def burn_budget(seed: int, new_vertex: int, at_vertex: int, p_forward: float) -> int:
    """Geometric number of neighbors to burn from ``at_vertex``.

    Mean is ``p / (1 - p)``, per the forest-fire model's definition of
    the forward burning probability.
    """
    if not 0.0 <= p_forward < 1.0:
        raise ValueError("p_forward must be in [0, 1)")
    count = 0
    while _hash_fraction(seed, new_vertex, at_vertex, count) < p_forward:
        count += 1
    return count


def burn_victims(
    candidates: list[int],
    budget: int,
    seed: int,
    new_vertex: int,
    at_vertex: int,
) -> list[int]:
    """Deterministically select ``budget`` burn victims from candidates.

    Candidates are ranked by a per-candidate hash so the selection is
    stable regardless of input order.
    """
    if budget >= len(candidates):
        return sorted(candidates)
    ranked = sorted(
        candidates,
        key=lambda c: (_hash_fraction(seed, new_vertex, at_vertex, c), c),
    )
    return sorted(ranked[:budget])


def single_fire(
    adjacency: dict[int, list[int]] | dict[int, set[int]],
    existing: list[int],
    new_vertex: int,
    p_forward: float,
    max_hops: int,
    seed: int,
) -> list[int]:
    """Burned vertex set for one arrival (sorted).

    This is the per-arrival kernel every platform implementation
    reproduces: pick the ambassador, then breadth-first burning with
    deterministic budgets and victim selection.

    Victims are chosen among *all* neighbors of a burning vertex;
    already-burned victims simply ignore the (re-)burn attempt. This
    receiver-side deduplication is what a message-passing
    implementation naturally computes — a sender cannot know the
    global burned set — so the specification adopts it, keeping the
    reference and every distributed implementation byte-identical.
    """
    ambassador = ambassador_for(seed, new_vertex, existing)
    burned = {ambassador}
    frontier = [ambassador]
    depth = 0
    while frontier and depth < max_hops:
        next_frontier: set[int] = set()
        for at_vertex in sorted(frontier):
            candidates = sorted(adjacency[at_vertex])
            budget = burn_budget(seed, new_vertex, at_vertex, p_forward)
            for victim in burn_victims(candidates, budget, seed, new_vertex, at_vertex):
                if victim not in burned:
                    burned.add(victim)
                    next_frontier.add(victim)
        frontier = sorted(next_frontier)
        depth += 1
    return sorted(burned)


def forest_fire_links(
    graph: Graph,
    num_new_vertices: int,
    p_forward: float = DEFAULT_P_FORWARD,
    max_hops: int = DEFAULT_MAX_HOPS,
    seed: int = 0,
) -> dict[int, list[int]]:
    """Predicted links for each new vertex: ``{new_vertex: [targets]}``.

    New vertex ids continue after the current maximum id. This mapping
    is the EVO algorithm's validated output.
    """
    if num_new_vertices < 0:
        raise ValueError("num_new_vertices must be >= 0")
    undirected = graph.to_undirected()
    if undirected.num_vertices == 0:
        raise ValueError("cannot evolve an empty graph")
    adjacency = undirected.adjacency()
    existing = sorted(adjacency)
    next_id = existing[-1] + 1
    return {
        next_id + arrival: single_fire(
            adjacency, existing, next_id + arrival, p_forward, max_hops, seed
        )
        for arrival in range(num_new_vertices)
    }


def forest_fire_evolution(
    graph: Graph,
    num_new_vertices: int,
    p_forward: float = DEFAULT_P_FORWARD,
    max_hops: int = DEFAULT_MAX_HOPS,
    seed: int = 0,
) -> Graph:
    """Grow the graph by ``num_new_vertices`` forest-fire arrivals.

    Convenience wrapper over :func:`forest_fire_links` that
    materializes the evolved graph.
    """
    links = forest_fire_links(graph, num_new_vertices, p_forward, max_hops, seed)
    undirected = graph.to_undirected()
    edges = list(undirected.iter_edges())
    vertices = [int(v) for v in undirected.vertices] + sorted(links)
    for new_vertex, targets in links.items():
        edges.extend((target, new_vertex) for target in targets)
    return Graph(vertices, edges, directed=False)
