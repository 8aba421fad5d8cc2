"""GraphX platform driver."""

from __future__ import annotations

from repro.algorithms.evo import ambassador_for
from repro.core import etl
from repro.core.cost import ClusterSpec, CostMeter, RunProfile
from repro.core.platform_api import GraphHandle, Platform
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.graph import Graph
from repro.platforms.rddgraph.algorithms import (
    graphx_bfs,
    graphx_cd,
    graphx_conn,
    graphx_evo,
    graphx_lcc,
    graphx_pagerank,
    graphx_sssp,
    graphx_stats,
)
from repro.platforms.rddgraph.bulk import (
    graphx_bfs_bulk,
    graphx_conn_bulk,
    graphx_pagerank_bulk,
    graphx_sssp_bulk,
    graphx_stats_bulk,
)
from repro.platforms.rddgraph.graphx import GraphXGraph
from repro.platforms.rddgraph.rdd import RDDContext

__all__ = ["GraphXPlatform"]

#: The algorithms the bulk path runs vectorized, each as
#: ``runner(context, graph, params)``; the rest stay scalar.
_BULK_RUNNERS = {
    Algorithm.BFS: lambda context, graph, params: graphx_bfs_bulk(
        context, graph, params.resolve_bfs_source(graph)
    ),
    Algorithm.CONN: lambda context, graph, params: graphx_conn_bulk(
        context, graph
    ),
    Algorithm.PR: lambda context, graph, params: graphx_pagerank_bulk(
        context,
        graph,
        damping=params.pagerank_damping,
        iterations=params.pagerank_iterations,
    ),
    Algorithm.SSSP: lambda context, graph, params: graphx_sssp_bulk(
        context, graph, params.resolve_sssp_source(graph)
    ),
    Algorithm.STATS: lambda context, graph, params: graphx_stats_bulk(
        context, graph
    ),
}


class GraphXPlatform(Platform):
    """GraphX stand-in: graph processing on the RDD substrate.

    Pays Spark's structural costs — whole-edge-RDD scans per
    iteration, a new vertex RDD per iteration, and heavier per-record
    memory — which is what puts it behind Giraph on CONN (≈3× in the
    paper) and makes it fail workloads Giraph completes.
    """

    name = "graphx"

    def __init__(self, cluster: ClusterSpec, bulk: bool = True):
        super().__init__(cluster)
        #: Vectorized path for BFS, CONN, PR, SSSP and STATS;
        #: ``bulk=False`` forces the scalar per-record RDD path (the
        #: cost profile is identical either way).
        self.bulk = bulk

    def _load(self, name: str, graph: Graph) -> GraphHandle:
        undirected = graph.to_undirected()
        storage = float(
            48 * undirected.num_vertices + 2 * 48 * undirected.num_edges
        )
        # ETL: read from HDFS, deserialize into JVM objects (more ops
        # per record than Giraph's primitives), shuffle into the hash
        # partitioner's layout.
        file_bytes = etl.edge_file_bytes(undirected.num_edges)
        etl_time = (
            self.cluster.hardware.startup_seconds
            + etl.distributed_read_seconds(file_bytes, self.cluster)
            + etl.parse_seconds(2 * undirected.num_edges, 8.0, self.cluster)
            + etl.partition_shuffle_seconds(storage, self.cluster)
        )
        return GraphHandle(
            name=name,
            platform=self.name,
            graph=undirected,
            storage_bytes=storage,
            etl_simulated_seconds=etl_time,
        )

    def _execute(
        self, handle: GraphHandle, algorithm: Algorithm, params: AlgorithmParams
    ) -> tuple[object, RunProfile]:
        meter = CostMeter(self.cluster, faults=self.faults, sinks=self.sinks)
        meter.charge_startup()
        context = RDDContext(self.cluster, meter)
        if self.bulk and algorithm in _BULK_RUNNERS:
            # The bulk runners charge the loaded graph's vertex and
            # edge records from counts, without building them.
            output = _BULK_RUNNERS[algorithm](context, handle.graph, params)
            return output, meter.profile
        adjacency = handle.adjacency()
        graph = GraphXGraph.from_adjacency(
            {v: list(adj) for v, adj in adjacency.items()}, context
        )
        try:
            output = self._dispatch(graph, adjacency, algorithm, params, handle)
        finally:
            graph.vertices.unpersist()
            graph.edges.unpersist()
        return output, meter.profile

    def _dispatch(self, graph, adjacency, algorithm, params, handle):
        if algorithm is Algorithm.BFS:
            return graphx_bfs(graph, params.resolve_bfs_source(handle.graph))
        if algorithm is Algorithm.CONN:
            return graphx_conn(graph)
        if algorithm is Algorithm.CD:
            degrees = dict(graph.degrees().collect())
            # Isolated vertices never appear in the edge RDD; this is
            # driver-side bookkeeping — the algorithm's real work is
            # charged inside the RDD operators.
            for vertex in adjacency:  # quality: ignore[cost-accounting]
                degrees.setdefault(vertex, 0)
            return graphx_cd(
                graph,
                degrees,
                max_iterations=params.cd_max_iterations,
                hop_attenuation=params.cd_hop_attenuation,
                node_preference=params.cd_node_preference,
            )
        if algorithm is Algorithm.STATS:
            return graphx_stats(graph, adjacency)
        if algorithm is Algorithm.PR:
            # Degrees come straight off the driver-side adjacency (the
            # real GraphX materializes outDegrees once per graph, not
            # per run); both execution paths therefore charge nothing
            # for them.
            degrees = {
                vertex: len(adj) for vertex, adj in adjacency.items()
            }
            return graphx_pagerank(
                graph,
                degrees,
                damping=params.pagerank_damping,
                iterations=params.pagerank_iterations,
            )
        if algorithm is Algorithm.SSSP:
            source = params.resolve_sssp_source(handle.graph)
            weights = {
                vertex: dict(pairs)
                for vertex, pairs in handle.graph.weighted_adjacency().items()
            }
            return graphx_sssp(graph, source, weights)
        if algorithm is Algorithm.LCC:
            return graphx_lcc(graph, adjacency)
        if algorithm is Algorithm.EVO:
            existing = sorted(adjacency)
            next_id = existing[-1] + 1
            ambassadors = {
                next_id + arrival: ambassador_for(
                    params.evo_seed, next_id + arrival, existing
                )
                for arrival in range(params.evo_new_vertices)
            }
            return graphx_evo(
                graph,
                adjacency,
                ambassadors,
                p_forward=params.evo_p_forward,
                max_hops=params.evo_max_hops,
                seed=params.evo_seed,
            )
        raise ValueError(f"unsupported algorithm {algorithm}")
