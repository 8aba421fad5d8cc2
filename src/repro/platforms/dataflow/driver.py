"""Stratosphere platform driver."""

from __future__ import annotations

from repro.algorithms.evo import evo_arrivals
from repro.core import etl
from repro.core.cost import CostMeter, RunProfile
from repro.core.platform_api import GraphHandle, Platform
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.graph import Graph
from repro.platforms.dataflow.algorithms import (
    dataflow_bfs,
    dataflow_cd,
    dataflow_conn,
    dataflow_evo,
    dataflow_lcc,
    dataflow_pagerank,
    dataflow_sssp,
    dataflow_stats,
)
from repro.platforms.dataflow.engine import (
    EDGE_BYTES,
    SOLUTION_ENTRY_BYTES,
    DataflowEngine,
)

__all__ = ["StratospherePlatform"]


class StratospherePlatform(Platform):
    """Dataflow platform with delta iterations (Stratosphere/Flink).

    Iterative algorithms move only frontier-sized worksets per round
    (Giraph-like sparsity) but pay an indexed solution-set probe per
    delta record; the edge table stays resident across iterations.
    """

    name = "stratosphere"

    def _load(self, name: str, graph: Graph) -> GraphHandle:
        undirected = graph.to_undirected()
        storage = (
            2 * undirected.num_edges * EDGE_BYTES
            + undirected.num_vertices * SOLUTION_ENTRY_BYTES
        )
        return GraphHandle(
            name=name,
            platform=self.name,
            graph=undirected,
            storage_bytes=storage,
            etl_simulated_seconds=etl.cluster_load_seconds(
                undirected.num_edges,
                undirected.num_edges,
                5.0,
                storage,
                self.cluster,
            ),
        )

    def _execute(
        self, handle: GraphHandle, algorithm: Algorithm, params: AlgorithmParams
    ) -> tuple[object, RunProfile]:
        adjacency = handle.adjacency()
        meter = CostMeter(self.cluster, faults=self.faults, sinks=self.sinks)
        meter.charge_startup()
        engine = DataflowEngine(adjacency, self.cluster, meter)
        try:
            if algorithm is Algorithm.BFS:
                output = dataflow_bfs(
                    engine, params.resolve_bfs_source(handle.graph)
                )
            elif algorithm is Algorithm.CONN:
                output = dataflow_conn(engine)
            elif algorithm is Algorithm.CD:
                output = dataflow_cd(
                    engine,
                    params.cd_max_iterations,
                    params.cd_hop_attenuation,
                    params.cd_node_preference,
                )
            elif algorithm is Algorithm.STATS:
                output = dataflow_stats(engine)
            elif algorithm is Algorithm.PR:
                output = dataflow_pagerank(
                    engine,
                    params.pagerank_damping,
                    params.pagerank_iterations,
                )
            elif algorithm is Algorithm.SSSP:
                source = params.resolve_sssp_source(handle.graph)
                weights = {
                    vertex: dict(pairs)
                    for vertex, pairs in handle.graph.weighted_adjacency().items()
                }
                output = dataflow_sssp(engine, source, weights)
            elif algorithm is Algorithm.LCC:
                output = dataflow_lcc(engine)
            elif algorithm is Algorithm.EVO:
                output = dataflow_evo(
                    engine,
                    evo_arrivals(
                        sorted(adjacency),
                        params.evo_new_vertices,
                        params.evo_seed,
                    ),
                    p_forward=params.evo_p_forward,
                    max_hops=params.evo_max_hops,
                    seed=params.evo_seed,
                )
            else:
                raise ValueError(f"unsupported algorithm {algorithm}")
        finally:
            engine.close()
        return output, meter.profile
