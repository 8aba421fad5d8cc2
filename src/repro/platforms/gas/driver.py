"""GraphLab platform driver."""

from __future__ import annotations

from repro.algorithms.evo import ambassador_for
from repro.algorithms.stats import GraphStats
from repro.core import etl
from repro.core.cost import ClusterSpec, CostMeter, RunProfile
from repro.core.platform_api import GraphHandle, Platform
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.graph import Graph
from repro.platforms.gas.engine import EDGE_BYTES, REPLICA_BYTES, GASEngine
from repro.platforms.gas.programs import (
    GASBFSProgram,
    GASCDProgram,
    GASConnProgram,
    GASEvoProgram,
    GASPageRankProgram,
    GASSSSPProgram,
    GASStatsProgram,
)

__all__ = ["GraphLabPlatform"]


class GraphLabPlatform(Platform):
    """Gather-Apply-Scatter platform (GraphLab/PowerGraph stand-in).

    Edges are partitioned across workers (a vertex cut); hubs are
    replicated as mirrors that pre-combine gathers locally, so the
    per-round network cost of a hub is proportional to its replica
    count, not its degree — the behaviour that makes this model
    competitive on power-law graphs.
    """

    name = "graphlab"

    def __init__(self, cluster: ClusterSpec, bulk: bool = True):
        super().__init__(cluster)
        #: Vectorized round path for programs that support it;
        #: ``bulk=False`` forces the scalar per-arc path (the cost
        #: profile is identical either way).
        self.bulk = bulk

    def _load(self, name: str, graph: Graph) -> GraphHandle:
        undirected = graph.to_undirected()
        storage = (
            undirected.num_vertices * REPLICA_BYTES
            + undirected.num_edges * EDGE_BYTES
        )
        # ETL: read the edge file, hash every edge into the vertex
        # cut, and set up mirror replicas.
        file_bytes = etl.edge_file_bytes(undirected.num_edges)
        etl_time = (
            self.cluster.hardware.startup_seconds
            + etl.distributed_read_seconds(file_bytes, self.cluster)
            + etl.parse_seconds(undirected.num_edges, 6.0, self.cluster)
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
        engine = GASEngine(handle.graph, self.cluster, meter, bulk=self.bulk)
        program = self._build_program(handle, algorithm, params)
        result = engine.run(program)
        output = self._extract_output(handle, algorithm, params, result)
        return output, meter.profile

    def _build_program(self, handle, algorithm, params):
        if algorithm is Algorithm.BFS:
            return GASBFSProgram(params.resolve_bfs_source(handle.graph))
        if algorithm is Algorithm.CONN:
            return GASConnProgram()
        if algorithm is Algorithm.CD:
            return GASCDProgram(
                max_iterations=params.cd_max_iterations,
                hop_attenuation=params.cd_hop_attenuation,
                node_preference=params.cd_node_preference,
            )
        if algorithm in (Algorithm.STATS, Algorithm.LCC):
            return GASStatsProgram(handle.adjacency())
        if algorithm is Algorithm.PR:
            return GASPageRankProgram(
                num_vertices=handle.graph.num_vertices,
                damping=params.pagerank_damping,
                iterations=params.pagerank_iterations,
            )
        if algorithm is Algorithm.SSSP:
            return GASSSSPProgram(
                params.resolve_sssp_source(handle.graph), handle.graph
            )
        if algorithm is Algorithm.EVO:
            adjacency = handle.adjacency()
            existing = sorted(adjacency)
            next_id = existing[-1] + 1
            ambassadors = {
                next_id + arrival: ambassador_for(
                    params.evo_seed, next_id + arrival, existing
                )
                for arrival in range(params.evo_new_vertices)
            }
            return GASEvoProgram(
                adjacency,
                ambassadors,
                p_forward=params.evo_p_forward,
                max_hops=params.evo_max_hops,
                seed=params.evo_seed,
            )
        raise ValueError(f"unsupported algorithm {algorithm}")

    def _extract_output(self, handle, algorithm, params, result):
        if algorithm is Algorithm.STATS:
            adjacency = handle.adjacency()
            num_vertices = len(adjacency)
            num_edges = sum(len(adj) for adj in adjacency.values()) // 2
            clustering_sum = sum(result.values.values())
            return GraphStats(
                num_vertices=num_vertices,
                num_edges=num_edges,
                mean_local_clustering=(
                    clustering_sum / num_vertices if num_vertices else 0.0
                ),
            )
        if algorithm in (Algorithm.CD, Algorithm.PR):
            # The vertex value carries an iteration counter; only the
            # label (CD) / rank (PR) is the output.
            return {v: value[0] for v, value in result.values.items()}
        if algorithm is Algorithm.EVO:
            existing = sorted(handle.adjacency())
            next_id = existing[-1] + 1
            links: dict[int, list[int]] = {
                next_id + i: [] for i in range(params.evo_new_vertices)
            }
            for vertex, (burned, _fresh) in result.values.items():
                for arrival in burned:
                    links[arrival].append(vertex)
            return {arrival: sorted(targets) for arrival, targets in links.items()}
        return dict(result.values)
