"""Giraph platform driver: the paper's reference BSP platform."""

from __future__ import annotations

from repro.algorithms.evo import ambassador_for
from repro.algorithms.stats import GraphStats
from repro.core import etl
from repro.core.cost import ClusterSpec, CostMeter, RunProfile
from repro.core.platform_api import GraphHandle, Platform
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.graph import Graph
from repro.platforms.pregel.engine import EDGE_BYTES, VERTEX_BYTES, PregelEngine
from repro.platforms.pregel.programs import (
    BFSProgram,
    CDProgram,
    ConnProgram,
    EvoProgram,
    LCCProgram,
    PageRankProgram,
    SSSPProgram,
    StatsProgram,
)

__all__ = ["GiraphPlatform"]


class GiraphPlatform(Platform):
    """Vertex-centric BSP platform (Apache Giraph stand-in).

    Holds the whole graph in (simulated) worker memory, pays one
    barrier per superstep, and combines messages where the algorithm
    allows — the execution profile the paper attributes to Giraph:
    fast in-memory iteration, memory-bound on very large graphs.
    """

    name = "giraph"

    def __init__(self, cluster: ClusterSpec, bulk: bool = True):
        super().__init__(cluster)
        #: Vectorized superstep path for programs that support it;
        #: ``bulk=False`` forces the scalar per-vertex path (the cost
        #: profile is identical either way).
        self.bulk = bulk

    def _load(self, name: str, graph: Graph) -> GraphHandle:
        undirected = graph.to_undirected()
        storage = (
            undirected.num_vertices * VERTEX_BYTES
            + 2 * undirected.num_edges * EDGE_BYTES
        )
        # ETL: read the edge file from HDFS, parse, hash-partition.
        file_bytes = etl.edge_file_bytes(undirected.num_edges)
        etl_time = (
            self.cluster.hardware.startup_seconds
            + etl.distributed_read_seconds(file_bytes, self.cluster)
            + etl.parse_seconds(undirected.num_edges, 4.0, self.cluster)
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
        engine = PregelEngine(handle.graph, self.cluster, meter, bulk=self.bulk)
        program = self._build_program(handle.graph, algorithm, params)
        result = engine.run(program)
        output = self._extract_output(handle.graph, algorithm, params, result)
        return output, meter.profile

    def _build_program(
        self, graph: Graph, algorithm: Algorithm, params: AlgorithmParams
    ):
        if algorithm is Algorithm.BFS:
            return BFSProgram(params.resolve_bfs_source(graph))
        if algorithm is Algorithm.CONN:
            return ConnProgram()
        if algorithm is Algorithm.CD:
            return CDProgram(
                max_iterations=params.cd_max_iterations,
                hop_attenuation=params.cd_hop_attenuation,
                node_preference=params.cd_node_preference,
            )
        if algorithm is Algorithm.STATS:
            return StatsProgram()
        if algorithm is Algorithm.PR:
            return PageRankProgram(
                damping=params.pagerank_damping,
                iterations=params.pagerank_iterations,
            )
        if algorithm is Algorithm.SSSP:
            return SSSPProgram(
                params.resolve_sssp_source(graph),
                num_vertices=graph.num_vertices,
            )
        if algorithm is Algorithm.LCC:
            return LCCProgram()
        if algorithm is Algorithm.EVO:
            existing = [int(v) for v in graph.to_undirected().vertices]
            next_id = existing[-1] + 1
            ambassadors = {
                next_id + arrival: ambassador_for(
                    params.evo_seed, next_id + arrival, existing
                )
                for arrival in range(params.evo_new_vertices)
            }
            return EvoProgram(
                ambassadors=ambassadors,
                p_forward=params.evo_p_forward,
                max_hops=params.evo_max_hops,
                seed=params.evo_seed,
            )
        raise ValueError(f"unsupported algorithm {algorithm}")

    def _extract_output(
        self,
        graph: Graph,
        algorithm: Algorithm,
        params: AlgorithmParams,
        result,
    ):
        if algorithm is Algorithm.STATS:
            num_vertices = result.aggregated.get("vertices", 0)
            # Each undirected edge was counted from both endpoints.
            num_edges = result.aggregated.get("edges", 0) // 2
            clustering_sum = result.aggregated.get("clustering_sum", 0.0)
            mean_cc = clustering_sum / num_vertices if num_vertices else 0.0
            return GraphStats(
                num_vertices=num_vertices,
                num_edges=num_edges,
                mean_local_clustering=mean_cc,
            )
        if algorithm is Algorithm.CD:
            return {v: value[0] for v, value in result.values.items()}
        if algorithm is Algorithm.EVO:
            # Transpose per-vertex burned-arrival sets into the
            # reference's {new_vertex: [targets]} mapping.
            links: dict[int, list[int]] = {}
            undirected = graph.to_undirected()
            existing = [int(v) for v in undirected.vertices]
            next_id = existing[-1] + 1
            for arrival in range(params.evo_new_vertices):
                links[next_id + arrival] = []
            for vertex, arrivals in result.values.items():
                for arrival in arrivals:
                    links[arrival].append(vertex)
            return {arrival: sorted(targets) for arrival, targets in links.items()}
        # BFS / CONN / PR / SSSP / LCC: plain {vertex: value} maps.
        return dict(result.values)
