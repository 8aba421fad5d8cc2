"""The Graphalytics algorithms as Gather-Apply-Scatter programs.

Each program reproduces its reference output exactly (PageRank within
the validator's per-vertex tolerance); the GAS engine's synchronous
rounds read the previous round's values, so the update timing matches
the BSP platforms' supersteps.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms import evo as evo_ref
from repro.algorithms.bfs import UNREACHABLE
from repro.algorithms.sssp import UNREACHABLE_DISTANCE
from repro.core.workload import sssp_round_bound
from repro.graph.graph import Graph
from repro.graph.properties import lcc_value, received_links
from repro.platforms.gas.bulk import (
    GASBFSBulkKernel,
    GASConnBulkKernel,
    GASSSSPBulkKernel,
)
from repro.platforms.gas.engine import GASProgram

__all__ = [
    "GASBFSProgram",
    "GASConnProgram",
    "GASCDProgram",
    "GASStatsProgram",
    "GASEvoProgram",
    "GASPageRankProgram",
    "GASSSSPProgram",
]


class GASBFSProgram(GASProgram):
    """BFS: pull the minimum neighbor distance, spread level by level."""

    gather_bytes = 8.0
    value_bytes = 8.0

    def __init__(self, source: int):
        self.source = source

    def initial_value(self, vertex: int, degree: int) -> int:
        """Everyone starts unreached; the source bootstraps in apply."""
        return UNREACHABLE

    def initially_active(self, vertex: int) -> bool:
        """Only the source starts active."""
        return vertex == self.source

    def bulk_rounds(self):
        """Vectorized distance-pulling kernel (same semantics)."""
        return GASBFSBulkKernel(self.source)

    def gather(self, vertex, value, neighbor, neighbor_value, neighbor_degree):
        """A reached neighbor offers distance ``neighbor + 1``."""
        if neighbor_value == UNREACHABLE:
            return None
        return neighbor_value + 1

    def gather_sum(self, left, right):
        """Keep the smallest candidate distance."""
        return min(left, right)

    def apply(self, vertex, value, gathered):
        """Adopt the gathered distance on first reach (source: 0)."""
        if value != UNREACHABLE:
            return value
        if vertex == self.source:
            return 0
        if gathered is not None:
            return gathered
        return value

    def scatter(self, vertex, old_value, new_value, neighbor):
        """Only *newly* reached vertices activate their neighbors.

        An unchanged value must not re-activate, or reached vertices
        would ping-pong forever.
        """
        return new_value != old_value


class GASConnProgram(GASProgram):
    """CONN: minimum-label propagation over the vertex cut."""

    gather_bytes = 8.0
    value_bytes = 8.0

    def initial_value(self, vertex: int, degree: int) -> int:
        """Every vertex starts in its own component."""
        return vertex

    def initially_active(self, vertex: int) -> bool:
        """Everyone participates in round 0."""
        return True

    def bulk_rounds(self):
        """Vectorized HashMin propagation kernel (same semantics)."""
        return GASConnBulkKernel()

    def gather(self, vertex, value, neighbor, neighbor_value, neighbor_degree):
        """Offer the neighbor's current label."""
        return neighbor_value

    def gather_sum(self, left, right):
        """Keep the smallest label."""
        return min(left, right)

    def apply(self, vertex, value, gathered):
        """Adopt a smaller label when one arrived."""
        if gathered is not None and gathered < value:
            return gathered
        return value

    def scatter(self, vertex, old_value, new_value, neighbor):
        """A shrunken label wakes the neighbors that can still improve."""
        return new_value < old_value


class GASPageRankProgram(GASProgram):
    """Fixed-iteration PageRank as synchronous GAS rounds.

    The vertex value is ``(rank, completed-iterations)`` — the counter
    lets scatter stop activating after ``iterations`` rounds, exactly
    like :class:`GASCDProgram`. Every incident edge gathers the
    neighbor's rank share; apply performs the damped update. The
    gather sum is a float addition, so the engine's per-worker
    grouping gives a different (but tolerance-equal) summation order
    than the reference.
    """

    gather_bytes = 8.0
    value_bytes = 16.0

    def __init__(
        self,
        num_vertices: int,
        damping: float = 0.85,
        iterations: int = 10,
    ):
        self.num_vertices = num_vertices
        self.damping = damping
        self.iterations = iterations

    def max_rounds(self) -> int:
        """One GAS round per PageRank iteration, plus slack."""
        return self.iterations + 2

    def initial_value(self, vertex: int, degree: int) -> tuple[float, int]:
        """``(rank, completed-iterations)``; everyone starts at 1/n."""
        return (1.0 / self.num_vertices, 0)

    def initially_active(self, vertex: int) -> bool:
        """Everyone participates while iterations remain."""
        return self.iterations > 0

    def bulk_runner(self, engine):
        """Order-preserving float-summing runner (same semantics)."""
        from repro.platforms.gas.bulk import GASPageRankBulkRunner

        return GASPageRankBulkRunner(engine, self)

    def gather(self, vertex, value, neighbor, neighbor_value, neighbor_degree):
        """The neighbor's rank share over this edge."""
        return neighbor_value[0] / neighbor_degree

    def gather_sum(self, left, right):
        """Sum the rank shares."""
        return left + right

    def apply(self, vertex, value, gathered):
        """The damped PageRank update."""
        base = (1.0 - self.damping) / self.num_vertices
        total = gathered if gathered is not None else 0.0
        return (base + self.damping * total, value[1] + 1)

    def scatter(self, vertex, old_value, new_value, neighbor):
        """Keep iterating until the budget is spent."""
        return new_value[1] < self.iterations


class GASSSSPProgram(GASProgram):
    """Weighted single-source shortest paths (label-correcting pull).

    The vertex value is the best known distance. Reached neighbors
    offer ``their distance + edge weight``; a vertex adopts a strictly
    smaller offer and wakes its neighbors. Positive weights make the
    min-plus fixpoint unique, so converged distances equal the
    Dijkstra reference exactly.
    """

    gather_bytes = 8.0
    value_bytes = 8.0

    def __init__(self, source: int, graph: Graph):
        self.source = source
        self.graph = graph
        self._weights: dict[int, dict[int, float]] | None = None

    @property
    def weights(self) -> dict[int, dict[int, float]]:
        """``{vertex: {neighbor: weight}}``, built on first scalar gather."""
        if self._weights is None:
            self._weights = {
                vertex: dict(pairs)
                for vertex, pairs in self.graph.weighted_adjacency().items()
            }
        return self._weights

    def max_rounds(self) -> int:
        """Shortest-path hop counts are bounded by the vertex count."""
        return sssp_round_bound(self.graph.num_vertices)

    def bulk_rounds(self):
        """Vectorized weighted distance-pulling kernel (same semantics)."""
        return GASSSSPBulkKernel(self.source)

    def initial_value(self, vertex: int, degree: int) -> float:
        """Everyone starts unreached; the source bootstraps in apply."""
        return UNREACHABLE_DISTANCE

    def initially_active(self, vertex: int) -> bool:
        """Only the source starts active."""
        return vertex == self.source

    def gather(self, vertex, value, neighbor, neighbor_value, neighbor_degree):
        """A reached neighbor offers its distance plus the edge weight."""
        if neighbor_value == UNREACHABLE_DISTANCE:
            return None
        return neighbor_value + self.weights[vertex][neighbor]

    def gather_sum(self, left, right):
        """Keep the smallest candidate distance."""
        return min(left, right)

    def apply(self, vertex, value, gathered):
        """Adopt any improvement (source: distance 0)."""
        best = value
        if vertex == self.source:
            best = min(best, 0.0)
        if gathered is not None and gathered < best:
            best = gathered
        return best

    def scatter(self, vertex, old_value, new_value, neighbor):
        """A shortened distance wakes the neighbors."""
        return new_value < old_value


class GASCDProgram(GASProgram):
    """CD: synchronous Leung et al. label propagation as GAS rounds.

    The gather sum is the concatenated vote list (no scalar combiner
    exists for CD), and the round counter lives in the vertex value so
    scatter can stop activating once ``max_iterations`` is reached —
    exactly the GraphX formulation, and the same fixpoint as the
    reference.
    """

    value_bytes = 24.0

    def __init__(
        self,
        max_iterations: int = 10,
        hop_attenuation: float = 0.1,
        node_preference: float = 0.1,
    ):
        self.max_iterations = max_iterations
        self.hop_attenuation = hop_attenuation
        self.node_preference = node_preference

    def max_rounds(self) -> int:
        """One GAS round per propagation step, plus slack."""
        return self.max_iterations + 2

    def initial_value(self, vertex: int, degree: int):
        """``(label, score, completed-iterations)``."""
        return (vertex, 1.0, 0)

    def initially_active(self, vertex: int) -> bool:
        """Everyone participates while iterations remain."""
        return self.max_iterations > 0

    def gather(self, vertex, value, neighbor, neighbor_value, neighbor_degree):
        """One vote: the neighbor's label, score, and degree."""
        label, score, _iteration = neighbor_value
        return ((label, score, neighbor_degree),)

    def gather_sum(self, left, right):
        """Concatenate vote lists."""
        return left + right

    def gather_size(self, partial) -> float:
        """Votes are 24 bytes each."""
        return 24.0 * len(partial)

    def apply(self, vertex, value, gathered):
        """The Leung et al. update rule (ties to the smallest label)."""
        label, score, iteration = value
        if gathered is None:
            return (label, score, iteration + 1)
        weight_by_label: dict[int, float] = {}
        best_score_by_label: dict[int, float] = {}
        for other_label, other_score, other_degree in gathered:
            vote = other_score * other_degree ** self.node_preference
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
            return (
                best_label,
                best_score_by_label[best_label] - self.hop_attenuation,
                iteration + 1,
            )
        return (label, score, iteration + 1)

    def scatter(self, vertex, old_value, new_value, neighbor):
        """Keep propagating until the iteration budget is spent."""
        return new_value[2] < self.max_iterations


class GASStatsProgram(GASProgram):
    """STATS and LCC: one gather round shipping neighbor adjacency lists.

    The vertex value becomes its local clustering coefficient, derived
    from the integer link count through the shared
    :func:`~repro.graph.properties.lcc_value`, so LCC outputs match the
    reference bit for bit; for STATS the driver aggregates counts and
    the mean. Adjacency comes from the loaded graph (GAS gathers can
    read edge-adjacent state).
    """

    def __init__(self, adjacency: dict[int, list[int]]):
        self.adjacency = adjacency

    def initial_value(self, vertex: int, degree: int) -> float:
        """Local clustering, to be computed in apply."""
        return 0.0

    def initially_active(self, vertex: int) -> bool:
        """Single full round."""
        return True

    def gather(self, vertex, value, neighbor, neighbor_value, neighbor_degree):
        """Ship the neighbor's adjacency list over this edge."""
        return (self.adjacency[neighbor],)

    def gather_sum(self, left, right):
        """Concatenate adjacency lists."""
        return left + right

    def gather_size(self, partial) -> float:
        """8 bytes per shipped vertex id."""
        return 8.0 * sum(len(adj) for adj in partial)

    def apply(self, vertex, value, gathered):
        """Count the edges among the neighbors, then the coefficient."""
        own = self.adjacency[vertex]
        degree = len(own)
        if degree < 2 or gathered is None:
            return 0.0
        return lcc_value(received_links(own, gathered), degree)

    def scatter(self, vertex, old_value, new_value, neighbor):
        """One round only."""
        return False


class GASEvoProgram(GASProgram):
    """EVO: forest-fire burning as pull-based burn attempts.

    The value is ``(burned, fresh)`` arrival→depth dicts. A gather on
    edge (v, u) picks up u's fresh burns whose deterministic victim
    set includes v; scatter activates all neighbors of freshly burned
    vertices, so every victim gathers in the following round — the
    same timing as the push-based platforms.
    """

    def __init__(
        self,
        adjacency: dict[int, list[int]],
        ambassadors: dict[int, int],
        p_forward: float,
        max_hops: int,
        seed: int,
    ):
        self.adjacency = adjacency
        #: arrival id -> ambassador vertex
        self.ambassadors = ambassadors
        self.p_forward = p_forward
        self.max_hops = max_hops
        self.seed = seed
        self._by_ambassador: dict[int, dict[int, int]] = {}
        for arrival, ambassador in ambassadors.items():
            self._by_ambassador.setdefault(ambassador, {})[arrival] = 0
        self._victim_cache: dict[tuple[int, int], frozenset] = {}

    def max_rounds(self) -> int:
        """One round per hop, plus the seeding round and slack."""
        return self.max_hops + 2

    def _victims_of(self, arrival: int, at_vertex: int) -> frozenset:
        key = (arrival, at_vertex)
        if key not in self._victim_cache:
            candidates = sorted(self.adjacency[at_vertex])
            budget = evo_ref.burn_budget(
                self.seed, arrival, at_vertex, self.p_forward
            )
            self._victim_cache[key] = frozenset(
                evo_ref.burn_victims(
                    candidates, budget, self.seed, arrival, at_vertex
                )
            )
        return self._victim_cache[key]

    def initial_value(self, vertex: int, degree: int):
        """Everyone starts unburned; ambassadors ignite in apply."""
        return ({}, {})

    def initially_active(self, vertex: int) -> bool:
        """Fires start at the ambassadors."""
        return vertex in self._by_ambassador

    def gather(self, vertex, value, neighbor, neighbor_value, neighbor_degree):
        """Pick up the neighbor's fresh burns that target this vertex."""
        _burned, fresh = neighbor_value
        attempts = tuple(
            (arrival, depth + 1)
            for arrival, depth in sorted(fresh.items())
            if depth < self.max_hops and vertex in self._victims_of(arrival, neighbor)
        )
        return attempts or None

    def gather_sum(self, left, right):
        """Concatenate burn attempts."""
        return left + right

    def gather_size(self, partial) -> float:
        """16 bytes per burn attempt."""
        return 16.0 * len(partial)

    def apply(self, vertex, value, gathered):
        """First receipt burns; later attempts are ignored.

        An ambassador's seed fires are injected here as depth-0
        attempts (guarded by the burned set, so the injection is
        idempotent): they must be *produced* by apply, not consumed —
        victims only gather the fresh set in the following round.
        """
        burned, _old_fresh = value
        burned = dict(burned)
        fresh: dict[int, int] = {}
        attempts = list(gathered or ())
        attempts.extend(
            (arrival, 0)
            for arrival in self._by_ambassador.get(vertex, {})
        )
        for arrival, depth in sorted(attempts):
            if arrival not in burned:
                burned[arrival] = depth
                fresh[arrival] = depth
        return (burned, fresh)

    def scatter(self, vertex, old_value, new_value, neighbor):
        """Freshly burned vertices wake their neighbors to gather."""
        return bool(new_value[1])
