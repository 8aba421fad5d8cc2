"""The Graphalytics algorithms as Pregel vertex programs.

Each program produces output identical to its reference implementation
in :mod:`repro.algorithms` (the Output Validator depends on this):

* :class:`BFSProgram` — frontier expansion with a min combiner;
* :class:`ConnProgram` — HashMin label propagation with a min combiner;
* :class:`CDProgram` — synchronous Leung et al. label propagation;
* :class:`StatsProgram` — neighbor-list exchange triangle counting
  plus count aggregators;
* :class:`EvoProgram` — per-arrival forest-fire burning via burn
  messages;
* :class:`PageRankProgram` — fixed-iteration all-active PageRank
  (the LDBC-gap workloads, with :class:`SSSPProgram` and
  :class:`LCCProgram`);
* :class:`SSSPProgram` — label-correcting weighted shortest paths
  with a min combiner;
* :class:`LCCProgram` — adjacency-exchange local clustering
  coefficients.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms import evo as evo_ref
from repro.algorithms.bfs import UNREACHABLE
from repro.algorithms.sssp import UNREACHABLE_DISTANCE
from repro.core.workload import sssp_round_bound
from repro.graph.properties import lcc_value, received_links
from repro.platforms.pregel.bulk import (
    BFSBulkKernel,
    ConnBulkKernel,
    SSSPBulkKernel,
)
from repro.platforms.pregel.engine import VertexContext, VertexProgram

__all__ = [
    "BFSProgram",
    "ConnProgram",
    "CDProgram",
    "StatsProgram",
    "EvoProgram",
    "PageRankProgram",
    "SSSPProgram",
    "LCCProgram",
]


class BFSProgram(VertexProgram):
    """Breadth-first search from a seed vertex.

    Vertex value is the hop distance (``UNREACHABLE`` until visited).
    Superstep *s* computes exactly the distance-*s* frontier; the min
    combiner collapses duplicate frontier messages per target.
    """

    message_bytes = 8.0

    def __init__(self, source: int):
        self.source = source

    def initial_value(self, vertex: int, ctx: VertexContext) -> int:
        """Vertex value before superstep 0."""
        return UNREACHABLE

    def combiner(self):
        """Sender-side message combiner."""
        return min

    def bulk_step(self):
        """Vectorized frontier-expansion kernel (same semantics)."""
        return BFSBulkKernel(self.source)

    def compute(self, ctx: VertexContext, messages: list) -> None:
        """Per-vertex kernel (see :class:`VertexProgram`)."""
        if ctx.superstep == 0:
            if ctx.vertex == self.source:
                ctx.value = 0
                ctx.send_to_neighbors(1)
        elif ctx.value == UNREACHABLE and messages:
            ctx.value = min(messages)
            ctx.send_to_neighbors(ctx.value + 1)
        ctx.vote_to_halt()


class ConnProgram(VertexProgram):
    """Connected components via HashMin.

    Every vertex starts labeled with its own id and propagates the
    minimum label it has seen; at convergence each vertex carries the
    smallest vertex id of its (weakly) connected component — the same
    labeling as :func:`repro.algorithms.connected_components`.
    """

    message_bytes = 8.0

    def initial_value(self, vertex: int, ctx: VertexContext) -> int:
        """Vertex value before superstep 0."""
        return vertex

    def combiner(self):
        """Sender-side message combiner."""
        return min

    def bulk_step(self):
        """Vectorized HashMin propagation kernel (same semantics)."""
        return ConnBulkKernel()

    def compute(self, ctx: VertexContext, messages: list) -> None:
        """Per-vertex kernel (see :class:`VertexProgram`)."""
        if ctx.superstep == 0:
            ctx.send_to_neighbors(ctx.value)
        else:
            smallest = min(messages) if messages else ctx.value
            if smallest < ctx.value:
                ctx.value = smallest
                ctx.send_to_neighbors(smallest)
        ctx.vote_to_halt()


class CDProgram(VertexProgram):
    """Community detection: synchronous Leung et al. label propagation.

    Messages carry ``(label, score, degree)`` triples — no combiner is
    possible because the receiver needs the per-label vote breakdown.
    The vertex value is ``(label, score)``; the algorithm stops after
    ``max_iterations`` propagation rounds or when an aggregator
    reports zero label changes, exactly like the reference.
    """

    message_bytes = 24.0
    value_bytes = 16.0

    def __init__(
        self,
        max_iterations: int = 10,
        hop_attenuation: float = 0.1,
        node_preference: float = 0.1,
    ):
        self.max_iterations = max_iterations
        self.hop_attenuation = hop_attenuation
        self.node_preference = node_preference

    def initial_value(self, vertex: int, ctx: VertexContext) -> tuple[int, float]:
        """Vertex value before superstep 0."""
        return (vertex, 1.0)

    def max_supersteps(self) -> int:
        """Superstep bound for this program."""
        return self.max_iterations + 2

    def compute(self, ctx: VertexContext, messages: list) -> None:
        """Per-vertex kernel (see :class:`VertexProgram`)."""
        label, score = ctx.value
        if ctx.superstep == 0:
            if self.max_iterations > 0:
                ctx.send_to_neighbors((label, score, ctx.degree()))
                # Seed the change counter so superstep 1 does not read
                # an empty aggregator as "converged".
                ctx.aggregate("changes", 1)
            ctx.vote_to_halt()
            return
        if ctx.superstep > self.max_iterations or ctx.aggregated("changes", 0) == 0:
            ctx.vote_to_halt()
            return
        if messages:
            weight_by_label: dict[int, float] = {}
            best_score_by_label: dict[int, float] = {}
            for other_label, other_score, other_degree in messages:
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
                label = best_label
                score = best_score_by_label[best_label] - self.hop_attenuation
                ctx.value = (label, score)
                ctx.aggregate("changes", 1)
        if ctx.superstep < self.max_iterations:
            ctx.send_to_neighbors((label, score, ctx.degree()))
        ctx.vote_to_halt()


class StatsProgram(VertexProgram):
    """STATS: vertex/edge counts and mean local clustering coefficient.

    Superstep 0: every vertex ships its adjacency list to each
    neighbor (the expensive, network-heavy phase — this workload
    stresses the "excessive network utilization" choke point).
    Superstep 1: each vertex counts the edges among its neighbors in
    the received lists (:func:`~repro.graph.properties.received_links`;
    each is reported twice, once from each endpoint), giving the local
    clustering coefficient. Counts are published through aggregators.
    The bulk path runs both supersteps as array operations
    (:class:`~repro.platforms.pregel.bulk.StatsBulkRunner`).
    """

    value_bytes = 16.0

    def initial_value(self, vertex: int, ctx: VertexContext) -> float:
        """Vertex value before superstep 0."""
        return 0.0

    def persistent_aggregators(self) -> set[str]:
        """Aggregators that accumulate across supersteps."""
        return {"vertices", "edges", "clustering_sum"}

    def bulk_runner(self, engine):
        """Vectorized adjacency-exchange runner (same semantics)."""
        from repro.platforms.pregel.bulk import StatsBulkRunner

        return StatsBulkRunner(engine, self)

    def message_size(self, message: Any) -> float:
        """Payload bytes of one message."""
        return 8.0 * len(message)

    def compute(self, ctx: VertexContext, messages: list) -> None:
        """Per-vertex kernel (see :class:`VertexProgram`)."""
        if ctx.superstep == 0:
            neighbors = ctx.neighbors()
            ctx.aggregate("vertices", 1)
            ctx.aggregate("edges", len(neighbors))
            if len(neighbors) >= 2:
                ctx.send_to_neighbors(tuple(neighbors))
        else:
            degree = ctx.degree()
            if degree >= 2 and messages:
                links = received_links(ctx.neighbors(), messages)
                local_cc = lcc_value(links, degree)
                ctx.value = local_cc
                ctx.aggregate("clustering_sum", local_cc)
        ctx.vote_to_halt()


class PageRankProgram(VertexProgram):
    """Fixed-iteration PageRank (Giraph's SimplePageRankComputation).

    Every vertex stays active for ``iterations`` update rounds: at
    superstep 0 it only ships its rank share; at supersteps 1..T it
    sums the incoming shares, applies the damped update, and — while
    rounds remain — re-ships. No combiner: the receiver folds its
    inbox left-to-right, which is the summation order the reference
    implementation and the bulk kernel both reproduce.
    """

    message_bytes = 8.0

    def __init__(self, damping: float = 0.85, iterations: int = 10):
        self.damping = damping
        self.iterations = iterations

    def initial_value(self, vertex: int, ctx: VertexContext) -> float:
        """Vertex value before superstep 0."""
        return 1.0 / ctx.num_vertices

    def max_supersteps(self) -> int:
        """Superstep bound for this program."""
        return self.iterations + 2

    def bulk_runner(self, engine):
        """All-active float-summing runner (same semantics)."""
        from repro.platforms.pregel.bulk import PageRankBulkRunner

        return PageRankBulkRunner(engine, self)

    def compute(self, ctx: VertexContext, messages: list) -> None:
        """Per-vertex kernel (see :class:`VertexProgram`)."""
        if ctx.superstep >= 1:
            total = 0.0
            for message in messages:
                total += message
            base = (1.0 - self.damping) / ctx.num_vertices
            ctx.value = base + self.damping * total
        if ctx.superstep >= self.iterations:
            ctx.vote_to_halt()
            return
        degree = ctx.degree()
        if degree:
            ctx.send_to_neighbors(ctx.value / degree)


class SSSPProgram(VertexProgram):
    """Weighted single-source shortest paths (label-correcting).

    The vertex value is the best known distance (``inf`` until
    reached). The source seeds distance 0 at superstep 0; any vertex
    whose merged (minimum) offer improves its distance adopts it and
    relaxes its out-edges. Positive weights make the min-plus fixpoint
    unique and order-insensitive, so the converged distances equal the
    Dijkstra reference exactly.
    """

    message_bytes = 8.0

    def __init__(self, source: int, num_vertices: int = 0):
        self.source = source
        self.num_vertices = num_vertices

    def initial_value(self, vertex: int, ctx: VertexContext) -> float:
        """Vertex value before superstep 0."""
        return 0.0 if vertex == self.source else UNREACHABLE_DISTANCE

    def combiner(self):
        """Sender-side message combiner."""
        return min

    def max_supersteps(self) -> int:
        """Shortest-path hop counts are bounded by the vertex count."""
        return sssp_round_bound(self.num_vertices)

    def bulk_step(self):
        """Vectorized weighted relaxation kernel (same semantics)."""
        return SSSPBulkKernel(self.source)

    def _relax(self, ctx: VertexContext) -> None:
        for neighbor, weight in ctx.weighted_neighbors():
            ctx.send(neighbor, ctx.value + weight)

    def compute(self, ctx: VertexContext, messages: list) -> None:
        """Per-vertex kernel (see :class:`VertexProgram`)."""
        if ctx.superstep == 0:
            if ctx.vertex == self.source:
                self._relax(ctx)
        else:
            best = min(messages)
            if best < ctx.value:
                ctx.value = best
                self._relax(ctx)
        ctx.vote_to_halt()


class LCCProgram(VertexProgram):
    """Local clustering coefficient via adjacency-list exchange.

    Superstep 0 ships each vertex's neighbor list to its neighbors
    (vertices of degree < 2 skip the send — their lists cannot close a
    triangle); superstep 1 counts the edges among the own neighbors in
    the received lists with
    :func:`~repro.graph.properties.received_links`, and the float is
    derived from that integer through the shared
    :func:`~repro.graph.properties.lcc_value`, so outputs match the
    reference bit for bit.
    """

    def initial_value(self, vertex: int, ctx: VertexContext) -> float:
        """Vertex value before superstep 0."""
        return 0.0

    def message_size(self, message: Any) -> float:
        """Payload bytes of one message."""
        return 8.0 * len(message)

    def compute(self, ctx: VertexContext, messages: list) -> None:
        """Per-vertex kernel (see :class:`VertexProgram`)."""
        if ctx.superstep == 0:
            neighbors = ctx.neighbors()
            if len(neighbors) >= 2:
                ctx.send_to_neighbors(tuple(neighbors))
        else:
            degree = ctx.degree()
            if degree >= 2 and messages:
                links = received_links(ctx.neighbors(), messages)
                ctx.value = lcc_value(links, degree)
        ctx.vote_to_halt()


class EvoProgram(VertexProgram):
    """EVO: forest-fire evolution as burn-message propagation.

    The driver injects each arrival's fire at its ambassador
    (deterministically derived, as in the reference). Messages are
    ``(arrival_id, depth)`` burn attempts; a vertex burns for an
    arrival on first receipt and — below the hop limit — selects burn
    victims among its neighbors with the shared deterministic kernel.
    The vertex value accumulates the set of arrivals that burned it,
    which is exactly the reference's per-arrival burned set,
    transposed.
    """

    message_bytes = 16.0
    value_bytes = 48.0

    def __init__(
        self,
        ambassadors: dict[int, int],
        p_forward: float,
        max_hops: int,
        seed: int,
    ):
        #: arrival id -> ambassador vertex
        self.ambassadors = ambassadors
        self.p_forward = p_forward
        self.max_hops = max_hops
        self.seed = seed
        self._by_ambassador: dict[int, list[int]] = {}
        for arrival, ambassador in ambassadors.items():
            self._by_ambassador.setdefault(ambassador, []).append(arrival)

    def initial_value(self, vertex: int, ctx: VertexContext) -> set[int]:
        """Vertex value before superstep 0."""
        return set()

    def max_supersteps(self) -> int:
        """Superstep bound for this program."""
        return self.max_hops + 2

    def _spread(self, ctx: VertexContext, arrival: int, depth: int) -> None:
        if depth >= self.max_hops:
            return
        candidates = sorted(ctx.neighbors())
        budget = evo_ref.burn_budget(self.seed, arrival, ctx.vertex, self.p_forward)
        victims = evo_ref.burn_victims(
            candidates, budget, self.seed, arrival, ctx.vertex
        )
        for victim in victims:
            ctx.send(victim, (arrival, depth + 1))

    def compute(self, ctx: VertexContext, messages: list) -> None:
        """Per-vertex kernel (see :class:`VertexProgram`)."""
        if ctx.superstep == 0:
            for arrival in self._by_ambassador.get(ctx.vertex, ()):
                ctx.value.add(arrival)
                self._spread(ctx, arrival, 0)
        else:
            burned: set[int] = ctx.value
            # First receipt wins; messages within a superstep share
            # the same (minimal) depth because propagation is BSP.
            for arrival, depth in sorted(messages):
                if arrival not in burned:
                    burned.add(arrival)
                    self._spread(ctx, arrival, depth)
        ctx.vote_to_halt()
