"""Unit tests for the graph-database store and traversal framework."""

from dataclasses import replace

import pytest

from repro.core.cost import ClusterSpec, CostMeter, MemoryBudgetExceeded
from repro.platforms.graphdb.store import (
    NODE_RECORD_BYTES,
    REL_RECORD_BYTES,
    GraphStore,
)
from repro.platforms.graphdb.traversal import (
    TraversalDescription,
    Uniqueness,
)


@pytest.fixture
def meter(single_node_spec):
    return CostMeter(single_node_spec)


@pytest.fixture
def store(meter):
    db = GraphStore(meter)
    for node in range(6):
        db.create_node(node)
    # A triangle 0-1-2 with a tail 2-3-4; node 5 isolated.
    for a, b in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]:
        db.create_relationship(a, b)
    return db


class TestStore:
    def test_counts(self, store):
        assert store.num_nodes == 6
        assert store.num_relationships == 5

    def test_duplicate_node_rejected(self, store):
        with pytest.raises(ValueError):
            store.create_node(0)

    def test_neighbors_sorted(self, store):
        assert store.neighbors(2) == [0, 1, 3]
        assert store.neighbors(5) == []

    def test_degree(self, store):
        assert store.degree(2) == 3
        assert store.degree(5) == 0

    def test_relationship_chain_order(self, store):
        # Chains are LIFO: the most recent relationship is first.
        rels = store.relationships_of(0)
        assert [r.other(0) for r in rels] == [2, 1]

    def test_memory_accounting(self, meter, store):
        expected = 6 * NODE_RECORD_BYTES + 5 * REL_RECORD_BYTES
        assert meter.memory_in_use(0) == expected
        store.release()
        assert meter.memory_in_use(0) == 0.0

    def test_memory_budget_enforced(self):
        spec = ClusterSpec.paper_single_node()
        spec = replace(
            spec,
            hardware=replace(
                spec.hardware, memory_bytes_per_worker=NODE_RECORD_BYTES * 2
            ),
        )
        db = GraphStore(CostMeter(spec))
        db.create_node(0)
        db.create_node(1)
        with pytest.raises(MemoryBudgetExceeded):
            db.create_node(2)

    def test_random_accesses_charged(self, meter, store):
        meter.begin_round("walk")
        store.neighbors(2)
        record = meter.end_round()
        # 1 node record + 3 relationship records.
        assert sum(record.random_accesses_per_worker) == 4

    def test_rel_endpoint_helpers(self, store):
        rel = store.relationships_of(0)[0]
        assert rel.other(0) in (1, 2)
        with pytest.raises(ValueError):
            rel.other(99)
        with pytest.raises(ValueError):
            rel.next_for(99)


class TestTraversal:
    def test_bfs_order_and_depths(self, store, meter):
        meter.begin_round("traverse")
        visits = list(TraversalDescription().breadth_first().traverse(store, 0))
        meter.end_round()
        depths = dict(visits)
        assert depths == {0: 0, 1: 1, 2: 1, 3: 2, 4: 3}
        # BFS: depths are non-decreasing in visit order.
        sequence = [d for _n, d in visits]
        assert sequence == sorted(sequence)

    def test_depth_limit(self, store, meter):
        meter.begin_round("traverse")
        limited = TraversalDescription().breadth_first().max_depth(1)
        nodes = {n for n, _d in limited.traverse(store, 0)}
        meter.end_round()
        assert nodes == {0, 1, 2}

    def test_dfs_visits_everything_reachable(self, store, meter):
        meter.begin_round("traverse")
        visits = list(TraversalDescription().depth_first().traverse(store, 0))
        meter.end_round()
        assert {n for n, _d in visits} == {0, 1, 2, 3, 4}

    def test_unknown_start_rejected(self, store):
        with pytest.raises(ValueError):
            list(TraversalDescription().traverse(store, 99))

    def test_no_uniqueness_revisits(self, meter):
        db = GraphStore(meter)
        for node in range(3):
            db.create_node(node)
        db.create_relationship(0, 1)
        db.create_relationship(1, 2)
        td = (
            TraversalDescription()
            .uniqueness(Uniqueness.NONE)
            .max_depth(2)
        )
        meter.begin_round("traverse")
        visits = [n for n, _d in td.traverse(db, 0)]
        meter.end_round()
        # Without uniqueness, 0 is re-visited through 1.
        assert visits.count(0) == 2

    def test_max_depth_validation(self):
        with pytest.raises(ValueError):
            TraversalDescription().max_depth(-1)
