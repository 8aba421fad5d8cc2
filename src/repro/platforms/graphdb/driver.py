"""Neo4j platform driver.

``bulk=True`` (the default) charges the record store's bytes from
counts at upload and runs BFS, CONN and PR over the uploaded graph's
CSR, whose rows are the nodes' relationship chains. The linked record
store the other procedures walk is built when one of them first needs
it, at upload under ``bulk=False``. Both paths produce the same
outputs and cost profiles.
"""

from __future__ import annotations

from repro.core import etl
from repro.core.cost import ClusterSpec, CostMeter, RunProfile
from repro.core.platform_api import GraphHandle, Platform
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.graph import Graph
from repro.platforms.graphdb.algorithms import (
    chain_bfs,
    chain_conn,
    chain_pagerank,
    db_bfs,
    db_cd,
    db_conn,
    db_evo,
    db_lcc,
    db_pagerank,
    db_sssp,
    db_stats,
)
from repro.platforms.graphdb.store import (
    GraphStore,
    allocate_records,
    build_store,
)

__all__ = ["Neo4jPlatform"]

#: The algorithms the bulk path runs over the graph's CSR, each as
#: ``runner(graph, meter, params)``; the rest walk the record store.
_CHAIN_RUNNERS = {
    Algorithm.BFS: lambda graph, meter, params: chain_bfs(
        graph, meter, params.resolve_bfs_source(graph)
    ),
    Algorithm.CONN: lambda graph, meter, params: chain_conn(graph, meter),
    Algorithm.PR: lambda graph, meter, params: chain_pagerank(
        graph, meter, params.pagerank_damping, params.pagerank_iterations
    ),
}


class Neo4jPlatform(Platform):
    """Single-node graph database (Neo4j stand-in).

    Fastest platform on graphs that fit its machine — no network, no
    barriers, tiny startup — but ETL fails outright once the record
    store exceeds the machine's memory ("Neo4j is not able to process
    graphs larger than the memory of a single machine").
    """

    name = "neo4j"
    single_machine = True

    def __init__(self, cluster: ClusterSpec | None = None, bulk: bool = True):
        super().__init__(cluster or ClusterSpec.paper_single_node())
        if self.cluster.num_workers != 1:
            raise ValueError("the graph database is non-distributed")
        #: Vectorized upload and BFS, CONN and PR; ``bulk=False``
        #: builds the linked record store at upload and runs every
        #: algorithm over it (the cost profile is identical either way).
        self.bulk = bulk

    def _load(self, name: str, graph: Graph) -> GraphHandle:
        undirected = graph.to_undirected()
        meter = CostMeter(self.cluster)
        detail = {}
        # The store's records charge the upload meter's memory; insert
        # *time* is the explicit ETL model below.
        if self.bulk:
            allocate_records(meter, undirected)
        else:
            detail["store"] = build_store(undirected, meter)
        storage = meter.memory_in_use(0)
        # ETL: transactional inserts — every relationship updates two
        # chain heads (random accesses), then the store flushes to disk.
        etl_time = (
            etl.sequential_insert_seconds(
                undirected.num_vertices, 1.0, self.cluster
            )
            + etl.sequential_insert_seconds(
                undirected.num_edges, 3.0, self.cluster
            )
            + storage / self.cluster.hardware.disk.seq_bandwidth
        )
        return GraphHandle(
            name=name,
            platform=self.name,
            graph=undirected,
            storage_bytes=storage,
            etl_simulated_seconds=etl_time,
            detail=detail,
        )

    def delete_graph(self, handle: GraphHandle) -> None:
        """Drop the graph's record store and release its memory."""
        store = handle.detail.pop("store", None)
        if store is not None:
            store.release()

    def _store(self, handle: GraphHandle) -> GraphStore:
        """The handle's linked record store, built on first use.

        The upload already charged (and fit) the store's bytes, so the
        late build does not enforce the budget again.
        """
        store = handle.detail.get("store")
        if store is None:
            store = handle.detail["store"] = build_store(
                handle.graph, CostMeter(self.cluster, enforce_memory=False)
            )
        return store

    def _execute(
        self, handle: GraphHandle, algorithm: Algorithm, params: AlgorithmParams
    ) -> tuple[object, RunProfile]:
        # Each run gets a fresh meter but shares the loaded store's
        # memory accounting baseline.
        meter = CostMeter(self.cluster, faults=self.faults, sinks=self.sinks)
        meter.allocate_memory(0, handle.storage_bytes)
        meter.charge_startup()
        meter.begin_round(algorithm.value.lower())
        try:
            if self.bulk and algorithm in _CHAIN_RUNNERS:
                output = _CHAIN_RUNNERS[algorithm](handle.graph, meter, params)
            else:
                output = self._walk_store(handle, meter, algorithm, params)
        finally:
            meter.end_round(active_vertices=handle.graph.num_vertices)
        return output, meter.profile

    def _walk_store(
        self,
        handle: GraphHandle,
        meter: CostMeter,
        algorithm: Algorithm,
        params: AlgorithmParams,
    ) -> object:
        """Run ``algorithm`` over the record store, charging ``meter``."""
        store = self._store(handle)
        original_meter = store.meter
        store.meter = meter
        try:
            if algorithm is Algorithm.BFS:
                return db_bfs(store, params.resolve_bfs_source(handle.graph))
            if algorithm is Algorithm.CONN:
                return db_conn(store)
            if algorithm is Algorithm.CD:
                return db_cd(
                    store,
                    params.cd_max_iterations,
                    params.cd_hop_attenuation,
                    params.cd_node_preference,
                )
            if algorithm is Algorithm.STATS:
                return db_stats(store)
            if algorithm is Algorithm.PR:
                return db_pagerank(
                    store, params.pagerank_damping, params.pagerank_iterations
                )
            if algorithm is Algorithm.SSSP:
                return db_sssp(store, params.resolve_sssp_source(handle.graph))
            if algorithm is Algorithm.LCC:
                return db_lcc(store)
            if algorithm is Algorithm.EVO:
                return db_evo(
                    store,
                    params.evo_new_vertices,
                    params.evo_p_forward,
                    params.evo_max_hops,
                    params.evo_seed,
                )
            raise ValueError(f"unsupported algorithm {algorithm}")
        finally:
            store.meter = original_meter
