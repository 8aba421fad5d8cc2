"""The Graphalytics algorithms as MapReduce job chains.

Each algorithm follows the classic Hadoop formulation: the adjacency
list is a value in every record, so *every iteration re-reads and
re-writes the whole graph* — the structural reason the paper finds
MapReduce "two orders of magnitude slower" than the in-memory
platforms, while also never running out of memory.

Record shapes (tags distinguish record kinds within a job):

* BFS:   ``(vertex, (adj, dist))`` + ``('D', dist)`` messages;
* CONN:  ``(vertex, (adj, label))`` + ``('L', label)`` messages;
* CD:    ``(vertex, (adj, label, score))`` + ``('M', ...)`` votes;
* STATS: adjacency broadcast + aggregation job;
* EVO:   ``(vertex, (adj, burned, fresh))`` + ``('B', ...)`` burns;
* PR:    ``(vertex, (adj, rank))`` + ``('R', share)`` contributions;
* SSSP:  ``(vertex, (wadj, dist, changed))`` + ``('D', dist)`` offers;
* LCC:   adjacency broadcast, per-vertex coefficients out.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.algorithms import evo as evo_ref
from repro.algorithms.bfs import UNREACHABLE
from repro.graph.properties import lcc_value, received_links
from repro.platforms.mapreduce.engine import MapReduceJob

__all__ = [
    "BFSIterationJob",
    "ConnIterationJob",
    "CDIterationJob",
    "StatsTriangleJob",
    "StatsAggregationJob",
    "EvoHopJob",
    "PageRankIterationJob",
    "SSSPIterationJob",
    "LCCJob",
]


class BFSIterationJob(MapReduceJob):
    """One BFS level expansion.

    The frontier (vertices whose distance equals ``iteration - 1``)
    emits candidate distances to its neighbors; the reducer keeps the
    adjacency record and adopts the smallest candidate if the vertex
    is still unreached, bumping the ``changed`` counter.
    """

    supports_batch = True

    def __init__(self, iteration: int):
        self.iteration = iteration
        self.name = f"bfs-{iteration}"

    def batch_emitters(self, batch) -> np.ndarray:
        """Frontier mask: vertices reached in the previous iteration."""
        return batch.columns["dist"] == self.iteration - 1

    def batch_message_values(self, batch) -> np.ndarray:
        """Candidate distance every frontier vertex offers: dist + 1."""
        return batch.columns["dist"] + 1

    def batch_apply(
        self,
        batch,
        minimum: np.ndarray,
        has_message: np.ndarray,
        counters: dict,
    ) -> dict[str, np.ndarray]:
        """Adopt the smallest candidate where still unreached."""
        dist = batch.columns["dist"]
        newly = (dist == UNREACHABLE) & has_message
        changed = int(newly.sum())
        if changed:
            counters["changed"] = counters.get("changed", 0) + changed
        return {"dist": np.where(newly, minimum, dist)}

    def map(self, key: Any, value: Any, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Emit intermediate records (see :class:`MapReduceJob`)."""
        adj, dist = value
        yield key, ("A", adj, dist)
        if dist == self.iteration - 1:
            for neighbor in adj:
                yield neighbor, ("D", dist + 1)

    def combine(self, key: Any, values: list) -> list:
        """Map-side pre-aggregation (see :class:`MapReduceJob`)."""
        # Keep the adjacency record; combine candidate distances to one.
        kept = [v for v in values if v[0] == "A"]
        candidates = [v[1] for v in values if v[0] == "D"]
        if candidates:
            kept.append(("D", min(candidates)))
        return kept

    def reduce(self, key: Any, values: list, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Reduce one grouped key (see :class:`MapReduceJob`)."""
        adj, dist = (), UNREACHABLE
        candidate = None
        for value in values:
            if value[0] == "A":
                adj, dist = value[1], value[2]
            else:
                candidate = value[1] if candidate is None else min(candidate, value[1])
        if dist == UNREACHABLE and candidate is not None:
            dist = candidate
            counters["changed"] = counters.get("changed", 0) + 1
        yield key, (adj, dist)


class ConnIterationJob(MapReduceJob):
    """One HashMin label-propagation iteration for CONN."""

    supports_batch = True

    def __init__(self, iteration: int):
        self.iteration = iteration
        self.name = f"conn-{iteration}"

    def batch_emitters(self, batch) -> np.ndarray:
        """Every vertex broadcasts its label each iteration."""
        return np.ones(len(batch), dtype=bool)

    def batch_message_values(self, batch) -> np.ndarray:
        """The broadcast payload is the current label."""
        return batch.columns["label"]

    def batch_apply(
        self,
        batch,
        minimum: np.ndarray,
        has_message: np.ndarray,
        counters: dict,
    ) -> dict[str, np.ndarray]:
        """HashMin: adopt a strictly smaller received label."""
        label = batch.columns["label"]
        improved = has_message & (minimum < label)
        changed = int(improved.sum())
        if changed:
            counters["changed"] = counters.get("changed", 0) + changed
        return {"label": np.where(improved, minimum, label)}

    def map(self, key: Any, value: Any, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Emit intermediate records (see :class:`MapReduceJob`)."""
        adj, label = value
        yield key, ("A", adj, label)
        for neighbor in adj:
            yield neighbor, ("L", label)

    def combine(self, key: Any, values: list) -> list:
        """Map-side pre-aggregation (see :class:`MapReduceJob`)."""
        kept = [v for v in values if v[0] == "A"]
        labels = [v[1] for v in values if v[0] == "L"]
        if labels:
            kept.append(("L", min(labels)))
        return kept

    def reduce(self, key: Any, values: list, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Reduce one grouped key (see :class:`MapReduceJob`)."""
        adj, label = (), None
        smallest = None
        for value in values:
            if value[0] == "A":
                adj, label = value[1], value[2]
            else:
                smallest = value[1] if smallest is None else min(smallest, value[1])
        if smallest is not None and smallest < label:
            label = smallest
            counters["changed"] = counters.get("changed", 0) + 1
        yield key, (adj, label)


class CDIterationJob(MapReduceJob):
    """One synchronous Leung et al. propagation step for CD."""

    def __init__(self, iteration: int, hop_attenuation: float, node_preference: float):
        self.iteration = iteration
        self.hop_attenuation = hop_attenuation
        self.node_preference = node_preference
        self.name = f"cd-{iteration}"

    def map(self, key: Any, value: Any, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Emit intermediate records (see :class:`MapReduceJob`)."""
        adj, label, score = value
        yield key, ("S", adj, label, score)
        degree = len(adj)
        for neighbor in adj:
            yield neighbor, ("M", label, score, degree)

    def reduce(self, key: Any, values: list, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Reduce one grouped key (see :class:`MapReduceJob`)."""
        adj, label, score = (), None, 1.0
        weight_by_label: dict[int, float] = {}
        best_score_by_label: dict[int, float] = {}
        for value in values:
            if value[0] == "S":
                adj, label, score = value[1], value[2], value[3]
            else:
                _tag, other_label, other_score, other_degree = value
                vote = other_score * other_degree ** self.node_preference
                weight_by_label[other_label] = (
                    weight_by_label.get(other_label, 0.0) + vote
                )
                best = best_score_by_label.get(other_label, float("-inf"))
                if other_score > best:
                    best_score_by_label[other_label] = other_score
        if weight_by_label:
            best_label = min(
                weight_by_label, key=lambda lbl: (-weight_by_label[lbl], lbl)
            )
            if best_label != label:
                label = best_label
                score = best_score_by_label[best_label] - self.hop_attenuation
                counters["changed"] = counters.get("changed", 0) + 1
        yield key, (adj, label, score)


class StatsTriangleJob(MapReduceJob):
    """STATS phase 1: adjacency broadcast and local clustering.

    Every vertex ships its adjacency list to each neighbor; the
    reducer counts the edges among the vertex's neighbors in the
    received lists and emits the per-vertex local clustering
    coefficient along with the global count contributions.
    """

    name = "stats-triangles"

    def map(self, key: Any, value: Any, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Emit intermediate records (see :class:`MapReduceJob`)."""
        adj = value
        yield key, ("A", adj)
        if len(adj) >= 2:
            for neighbor in adj:
                yield neighbor, ("N", adj)

    @staticmethod
    def _own_and_shipped(values: list) -> tuple[tuple, list]:
        """The vertex's own adjacency and the lists shipped to it."""
        own: tuple = ()
        neighbor_lists = []
        for value in values:
            if value[0] == "A":
                own = value[1]
            else:
                neighbor_lists.append(value[1])
        return own, neighbor_lists

    def reduce(self, key: Any, values: list, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Reduce one grouped key (see :class:`MapReduceJob`)."""
        own, neighbor_lists = self._own_and_shipped(values)
        degree = len(own)
        yield "vertices", 1
        yield "edges", degree
        if degree >= 2 and neighbor_lists:
            links = received_links(own, neighbor_lists)
            yield "clustering_sum", lcc_value(links, degree)


class StatsAggregationJob(MapReduceJob):
    """STATS phase 2: global sums of the per-vertex contributions."""

    name = "stats-aggregate"

    def map(self, key: Any, value: Any, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Emit intermediate records (see :class:`MapReduceJob`)."""
        yield key, value

    def combine(self, key: Any, values: list) -> list:
        """Map-side pre-aggregation (see :class:`MapReduceJob`)."""
        return [sum(values)]

    def reduce(self, key: Any, values: list, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Reduce one grouped key (see :class:`MapReduceJob`)."""
        yield key, sum(values)


class PageRankIterationJob(MapReduceJob):
    """One PageRank update round.

    Every vertex re-emits its adjacency record and sends its
    ``rank / degree`` share to each neighbor; the combiner pre-sums
    shares per (map task, target); the reducer applies the damped
    update. Runs a fixed number of rounds — no ``changed`` counter,
    matching the all-active LDBC semantics.

    Records stay non-columnar (float ranks ride in the value tuple),
    so both bulk modes take the identical scalar record path.
    """

    def __init__(self, iteration: int, num_vertices: int, damping: float):
        self.num_vertices = num_vertices
        self.damping = damping
        self.name = f"pagerank-{iteration}"

    def map(self, key: Any, value: Any, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Emit intermediate records (see :class:`MapReduceJob`)."""
        adj, rank = value
        yield key, ("A", adj)
        if adj:
            share = rank / len(adj)
            for neighbor in adj:
                yield neighbor, ("R", share)

    def combine(self, key: Any, values: list) -> list:
        """Map-side pre-aggregation (see :class:`MapReduceJob`)."""
        kept = [v for v in values if v[0] == "A"]
        total = 0.0
        shares = False
        for value in values:
            if value[0] == "R":
                total += value[1]
                shares = True
        if shares:
            kept.append(("R", total))
        return kept

    def reduce(self, key: Any, values: list, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Reduce one grouped key (see :class:`MapReduceJob`)."""
        adj = ()
        total = 0.0
        for value in values:
            if value[0] == "A":
                adj = value[1]
            else:
                total += value[1]
        base = (1.0 - self.damping) / self.num_vertices
        yield key, (adj, base + self.damping * total)


class SSSPIterationJob(MapReduceJob):
    """One weighted label-correcting relaxation round.

    Records carry ``(wadj, dist, changed)`` where ``wadj`` is the
    weighted adjacency as ``(neighbor, weight)`` pairs. Vertices whose
    distance improved last round offer ``dist + weight`` along every
    edge; the reducer adopts a strictly smaller minimum offer and
    bumps the ``changed`` counter the driver loops on. The columnar
    twin flows a weighted batch with float64 ``dist`` and bool
    ``changed`` columns.
    """

    supports_batch = True

    def __init__(self, iteration: int):
        self.name = f"sssp-{iteration}"

    def batch_emitters(self, batch) -> np.ndarray:
        """Vertices whose distance improved last round relax."""
        return batch.columns["changed"]

    def batch_message_values(self, batch) -> np.ndarray:
        """The offered distance, before the batch adds arc weights."""
        return batch.columns["dist"]

    def batch_apply(
        self,
        batch,
        minimum: np.ndarray,
        has_message: np.ndarray,
        counters: dict,
    ) -> dict[str, np.ndarray]:
        """Adopt a strictly smaller offer; flag who changed."""
        dist = batch.columns["dist"]
        improved = has_message & (minimum < dist)
        changed = int(improved.sum())
        if changed:
            counters["changed"] = counters.get("changed", 0) + changed
        return {"dist": np.where(improved, minimum, dist), "changed": improved}

    def batch_state_elements(self, batch) -> int:
        """``("A", wadj, dist)``: the reducer recomputes ``changed``."""
        return 3

    def map(self, key: Any, value: Any, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Emit intermediate records (see :class:`MapReduceJob`)."""
        wadj, dist, changed = value
        yield key, ("A", wadj, dist)
        if changed:
            for neighbor, weight in wadj:
                yield neighbor, ("D", dist + weight)

    def combine(self, key: Any, values: list) -> list:
        """Map-side pre-aggregation (see :class:`MapReduceJob`)."""
        kept = [v for v in values if v[0] == "A"]
        offers = [v[1] for v in values if v[0] == "D"]
        if offers:
            kept.append(("D", min(offers)))
        return kept

    def reduce(self, key: Any, values: list, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Reduce one grouped key (see :class:`MapReduceJob`)."""
        wadj, dist = (), None
        best = None
        for value in values:
            if value[0] == "A":
                wadj, dist = value[1], value[2]
            else:
                best = value[1] if best is None else min(best, value[1])
        changed = best is not None and best < dist
        if changed:
            dist = best
            counters["changed"] = counters.get("changed", 0) + 1
        yield key, (wadj, dist, changed)


class LCCJob(StatsTriangleJob):
    """Per-vertex local clustering coefficients in one job.

    The STATS triangle pass (same map and reduce-side parse), but the
    reducer emits every vertex's coefficient instead of global sum
    contributions.
    """

    name = "lcc-triangles"

    def reduce(self, key: Any, values: list, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Reduce one grouped key (see :class:`MapReduceJob`)."""
        own, neighbor_lists = self._own_and_shipped(values)
        yield key, lcc_value(received_links(own, neighbor_lists), len(own))


class EvoHopJob(MapReduceJob):
    """One fire-propagation hop of EVO.

    Records carry ``(adj, burned, fresh)`` where ``burned`` maps
    arrival → burn depth and ``fresh`` holds the arrivals that burned
    this vertex in the previous hop (and therefore spread now, via the
    shared deterministic kernel).
    """

    def __init__(self, p_forward: float, max_hops: int, seed: int, hop: int):
        self.p_forward = p_forward
        self.max_hops = max_hops
        self.seed = seed
        self.name = f"evo-hop-{hop}"

    def map(self, key: Any, value: Any, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Emit intermediate records (see :class:`MapReduceJob`)."""
        adj, burned, fresh = value
        yield key, ("S", adj, burned)
        for arrival, depth in sorted(fresh.items()):
            if depth >= self.max_hops:
                continue
            candidates = sorted(adj)
            budget = evo_ref.burn_budget(self.seed, arrival, key, self.p_forward)
            victims = evo_ref.burn_victims(
                candidates, budget, self.seed, arrival, key
            )
            for victim in victims:
                yield victim, ("B", arrival, depth + 1)

    def reduce(self, key: Any, values: list, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Reduce one grouped key (see :class:`MapReduceJob`)."""
        adj, burned = (), {}
        attempts: list[tuple[int, int]] = []
        for value in values:
            if value[0] == "S":
                adj, burned = value[1], dict(value[2])
            else:
                attempts.append((value[1], value[2]))
        fresh: dict[int, int] = {}
        for arrival, depth in sorted(attempts):
            if arrival not in burned:
                burned[arrival] = depth
                fresh[arrival] = depth
                counters["burned"] = counters.get("burned", 0) + 1
        yield key, (adj, burned, fresh)
