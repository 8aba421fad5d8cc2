"""Record stores in the style of Neo4j's storage engine.

Neo4j stores graphs as fixed-size records: each *node record* points
at the head of that node's relationship chain, and each *relationship
record* holds both endpoints plus, per endpoint, the id of the next
relationship in that endpoint's chain (a doubly linked list threaded
through both nodes' chains). Traversing a node's neighbors therefore
chases one pointer per relationship — a cache-missing random access,
charged to the cost meter as such. This pointer-chasing storage is
why graph databases exhibit the paper's "poor access locality" choke
point, and its in-memory footprint is the "large graph memory
footprint" choke point: the store must fit in the single machine's
RAM.

Record sizes follow Neo4j's on-disk format of the era (node 14 B,
relationship 33 B) plus page/cache overhead.

The linked :class:`GraphStore` is what the scalar procedures walk.
The bulk procedures read the same chains off the uploaded graph's
CSR (:meth:`~repro.graph.graph.Graph.csr`: a relationship sits on
both endpoints' chains, as each edge gives the CSR both its arcs),
and a bulk upload charges the store's record bytes from counts
(:func:`allocate_records`), so the linked records are built
(:func:`build_store`) only when a scalar procedure first needs them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost import CostMeter, MemoryBudgetExceeded
from repro.graph.graph import Graph

__all__ = [
    "GraphStore",
    "NODE_RECORD_BYTES",
    "REL_RECORD_BYTES",
    "NO_RELATIONSHIP",
    "allocate_records",
    "build_store",
]

#: In-memory bytes per node record (14 B record + page-cache overhead).
NODE_RECORD_BYTES = 32.0
#: In-memory bytes per relationship record (33 B record + overhead).
REL_RECORD_BYTES = 64.0
#: In-memory bytes per property record (41 B record + overhead);
#: charged per weighted relationship.
PROPERTY_RECORD_BYTES = 48.0
#: Chain terminator.
NO_RELATIONSHIP = -1


@dataclass
class NodeRecord:
    """A node: id plus the head of its relationship chain."""

    node_id: int
    first_rel: int = NO_RELATIONSHIP


@dataclass
class RelationshipRecord:
    """A relationship: endpoints plus per-endpoint chain pointers.

    ``weight`` holds the relationship's one property (the edge weight
    of weighted datasets); Neo4j stores properties in a separate
    property-record chain, modeled here as extra bytes per record.
    """

    rel_id: int
    node_a: int
    node_b: int
    a_next: int = NO_RELATIONSHIP
    b_next: int = NO_RELATIONSHIP
    weight: float | None = None

    def other(self, node: int) -> int:
        """The endpoint opposite to ``node``."""
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise ValueError(f"node {node} is not an endpoint of rel {self.rel_id}")

    def next_for(self, node: int) -> int:
        """The next relationship id in ``node``'s chain."""
        if node == self.node_a:
            return self.a_next
        if node == self.node_b:
            return self.b_next
        raise ValueError(f"node {node} is not an endpoint of rel {self.rel_id}")


class GraphStore:
    """The single-machine store: node + relationship record arrays.

    All memory is allocated on worker 0 of the meter's cluster (the
    database is non-distributed); loading a graph that does not fit
    raises the meter's memory error, which the driver surfaces as a
    platform failure.
    """

    def __init__(self, meter: CostMeter):
        self.meter = meter
        self._nodes: dict[int, NodeRecord] = {}
        self._rels: list[RelationshipRecord] = []
        self._num_properties = 0

    # -- write path -----------------------------------------------------

    def create_node(self, node_id: int) -> None:
        """Allocate a node record."""
        if node_id in self._nodes:
            raise ValueError(f"node {node_id} already exists")
        self._nodes[node_id] = NodeRecord(node_id)
        self.meter.allocate_memory(0, NODE_RECORD_BYTES)

    def create_relationship(
        self, node_a: int, node_b: int, weight: float | None = None
    ) -> int:
        """Insert a relationship at the head of both endpoint chains.

        A non-``None`` ``weight`` adds a property record to the
        relationship (and its bytes to the store's footprint).
        """
        record_a = self._nodes[node_a]
        record_b = self._nodes[node_b]
        rel_id = len(self._rels)
        record = RelationshipRecord(
            rel_id,
            node_a,
            node_b,
            a_next=record_a.first_rel,
            b_next=record_b.first_rel if node_a != node_b else NO_RELATIONSHIP,
            weight=weight,
        )
        self._rels.append(record)
        record_a.first_rel = rel_id
        if node_a != node_b:
            record_b.first_rel = rel_id
        rel_bytes = REL_RECORD_BYTES
        if weight is not None:
            self._num_properties += 1
            rel_bytes += PROPERTY_RECORD_BYTES
        self.meter.allocate_memory(0, rel_bytes)
        return rel_id

    def release(self) -> None:
        """Free the whole store's memory (drop the database)."""
        total = (
            len(self._nodes) * NODE_RECORD_BYTES
            + len(self._rels) * REL_RECORD_BYTES
            + self._num_properties * PROPERTY_RECORD_BYTES
        )
        self.meter.release_memory(0, total)
        self._nodes.clear()
        self._rels.clear()
        self._num_properties = 0

    # -- read path -------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of node records."""
        return len(self._nodes)

    @property
    def num_relationships(self) -> int:
        """Number of relationship records."""
        return len(self._rels)

    def _charge_scan(self, count: float) -> None:
        """Charge sequential work if a metering round is open.

        The store is also usable stand-alone (tests, ad-hoc queries);
        charges only apply inside an algorithm's metered round.
        """
        if self.meter.in_round:
            self.meter.charge_compute(0, count)

    def _charge_chase(self, count: float) -> None:
        """Charge pointer-chasing accesses if a round is open."""
        if self.meter.in_round:
            self.meter.charge_random_access(0, count)

    def node_ids(self) -> list[int]:
        """All node ids, ascending (a sequential store scan)."""
        self._charge_scan(len(self._nodes))
        return sorted(self._nodes)

    def has_node(self, node_id: int) -> bool:
        """Whether a node record exists for this id."""
        return node_id in self._nodes

    def relationships_of(self, node_id: int) -> list[RelationshipRecord]:
        """Walk a node's relationship chain (one random access each).

        The node record and every relationship record are charged in
        one call after the walk: integer access counts sum exactly.
        """
        record = self._nodes[node_id]
        rels: list[RelationshipRecord] = []
        rel_id = record.first_rel
        while rel_id != NO_RELATIONSHIP:
            rel = self._rels[rel_id]
            rels.append(rel)
            rel_id = rel.next_for(node_id)
        self._charge_chase(1 + len(rels))
        return rels

    def neighbors(self, node_id: int) -> list[int]:
        """Adjacent node ids, sorted ascending for determinism."""
        return sorted(
            rel.other(node_id) for rel in self.relationships_of(node_id)
        )

    def weighted_neighbors(self, node_id: int) -> list[tuple[int, float]]:
        """``(neighbor, weight)`` pairs, sorted by neighbor id.

        Reading each relationship's weight chases its property record
        (one extra random access per relationship).
        """
        rels = self.relationships_of(node_id)
        self._charge_chase(len(rels))
        return sorted((rel.other(node_id), rel.weight) for rel in rels)

    def degree(self, node_id: int) -> int:
        """Number of relationships on ``node_id``'s chain."""
        return len(self.relationships_of(node_id))


def build_store(graph: Graph, meter: CostMeter) -> GraphStore:
    """Insert ``graph``'s nodes, then its relationships, into a new store.

    Every record charges its bytes to ``meter`` as it is created, so a
    store that does not fit fails at the record that breaks the
    budget, after releasing what it had allocated.
    """
    store = GraphStore(meter)
    try:
        for vertex in graph.vertices.tolist():
            store.create_node(vertex)
        # Inserts charge the meter inside the store (memory per
        # record); insert *time* is the uploading driver's ETL model.
        if graph.weights is not None:
            for source, target, weight in graph.iter_weighted_edges():  # quality: ignore[cost-accounting]
                store.create_relationship(source, target, weight)
        else:
            for source, target in graph.iter_edges():
                store.create_relationship(source, target)
    except MemoryBudgetExceeded:
        store.release()
        raise
    return store


def allocate_records(meter: CostMeter, graph: Graph) -> None:
    """Charge the bytes :func:`build_store` allocates, without the records.

    The node records, then one relationship record (plus a property
    record when weighted) per edge: one allocation of the total when
    it fits, else the per-record sequence, which fails where
    :meth:`GraphStore.create_relationship` (or ``create_node``) does.
    """
    rel_bytes = REL_RECORD_BYTES
    if graph.weights is not None:
        rel_bytes += PROPERTY_RECORD_BYTES
    counts = [graph.num_vertices, graph.num_edges]
    record_bytes = [NODE_RECORD_BYTES, rel_bytes]
    meter.allocate_worker_memory(
        np.array([counts[0] * record_bytes[0] + counts[1] * record_bytes[1]]),
        lambda: (
            np.zeros(sum(counts), dtype=np.int64),
            np.repeat(record_bytes, counts),
        ),
    )
