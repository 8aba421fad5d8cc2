"""Neo4j platform driver."""

from __future__ import annotations

from repro.core import etl
from repro.core.cost import ClusterSpec, CostMeter, MemoryBudgetExceeded, RunProfile
from repro.core.errors import SimulatedOOM
from repro.core.platform_api import GraphHandle, Platform
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.graph import Graph
from repro.platforms.graphdb.algorithms import (
    db_bfs,
    db_cd,
    db_conn,
    db_evo,
    db_lcc,
    db_pagerank,
    db_sssp,
    db_stats,
)
from repro.platforms.graphdb.store import GraphStore

__all__ = ["Neo4jPlatform"]


class Neo4jPlatform(Platform):
    """Single-node graph database (Neo4j stand-in).

    Fastest platform on graphs that fit its machine — no network, no
    barriers, tiny startup — but ETL fails outright once the record
    store exceeds the machine's memory ("Neo4j is not able to process
    graphs larger than the memory of a single machine").
    """

    name = "neo4j"
    single_machine = True

    def __init__(self, cluster: ClusterSpec | None = None):
        super().__init__(cluster or ClusterSpec.paper_single_node())
        if self.cluster.num_workers != 1:
            raise ValueError("the graph database is non-distributed")
        self._stores: dict[str, tuple[GraphStore, CostMeter]] = {}

    def _load(self, name: str, graph: Graph) -> GraphHandle:
        undirected = graph.to_undirected()
        meter = CostMeter(self.cluster)
        store = GraphStore(meter)
        try:
            for vertex in undirected.vertices:
                store.create_node(int(vertex))
            # Inserts charge the meter inside the store (memory per
            # record); insert *time* is the explicit ETL model below.
            if undirected.weights is not None:
                for source, target, weight in undirected.iter_weighted_edges():  # quality: ignore[cost-accounting]
                    store.create_relationship(source, target, weight)
            else:
                for source, target in undirected.iter_edges():
                    store.create_relationship(source, target)
        except MemoryBudgetExceeded as exc:
            store.release()
            raise SimulatedOOM(self.name, str(exc)) from exc
        self._stores[name] = (store, meter)
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
            detail={"store": store},
        )

    def delete_graph(self, handle: GraphHandle) -> None:
        """Drop the graph's record store and release its memory."""
        entry = self._stores.pop(handle.name, None)
        if entry is not None:
            entry[0].release()

    def _execute(
        self, handle: GraphHandle, algorithm: Algorithm, params: AlgorithmParams
    ) -> tuple[object, RunProfile]:
        store: GraphStore = handle.detail["store"]
        # Each run gets a fresh meter but shares the loaded store's
        # memory accounting baseline.
        meter = CostMeter(self.cluster, faults=self.faults, sinks=self.sinks)
        meter.allocate_memory(0, handle.storage_bytes)
        original_meter = store.meter
        store.meter = meter
        meter.charge_startup()
        meter.begin_round(algorithm.value.lower())
        try:
            if algorithm is Algorithm.BFS:
                output = db_bfs(store, params.resolve_bfs_source(handle.graph))
            elif algorithm is Algorithm.CONN:
                output = db_conn(store)
            elif algorithm is Algorithm.CD:
                output = db_cd(
                    store,
                    params.cd_max_iterations,
                    params.cd_hop_attenuation,
                    params.cd_node_preference,
                )
            elif algorithm is Algorithm.STATS:
                output = db_stats(store)
            elif algorithm is Algorithm.PR:
                output = db_pagerank(
                    store, params.pagerank_damping, params.pagerank_iterations
                )
            elif algorithm is Algorithm.SSSP:
                output = db_sssp(store, params.resolve_sssp_source(handle.graph))
            elif algorithm is Algorithm.LCC:
                output = db_lcc(store)
            elif algorithm is Algorithm.EVO:
                output = db_evo(
                    store,
                    params.evo_new_vertices,
                    params.evo_p_forward,
                    params.evo_max_hops,
                    params.evo_seed,
                )
            else:
                raise ValueError(f"unsupported algorithm {algorithm}")
        finally:
            meter.end_round(active_vertices=store.num_nodes)
            store.meter = original_meter
        return output, meter.profile
