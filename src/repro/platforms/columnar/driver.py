"""Virtuoso platform driver: the full workload on the column store.

The paper announces Virtuoso support ("Furthermore, we plan to support
databases for RDF semantic web data and are working on implementing
support for OpenLink Virtuoso, a popular RDF database") and evaluates
its BFS in Section 3.4. This driver completes the integration: all
five Graphalytics algorithms run as vectored stored procedures over
the compressed, sorted ``sp_edge`` table, with intra-query parallelism
on the DBMS machine.

Cost accounting: random lookups (binary search + page touch) charge
random accesses; visited edge endpoints charge sequential decompress/
scan operations; the machine is a single multi-core node, so there is
no network and no barrier cost — but the *whole compressed table plus
the traversal state* must fit its memory.

The upload builds ``sp_edge`` from the graph's edge arrays. With
``bulk=True`` (the default) BFS, CONN and PR run over the uploaded
graph's CSR, whose rows list the arcs of the table's key ranges, with
their work counters in closed form; ``bulk=False`` runs every
procedure vertex by vertex. Both give the same outputs and counters.
"""

from __future__ import annotations

import numpy as np

from repro.core import etl
from repro.core.cost import ClusterSpec, CostMeter, RunProfile
from repro.core.platform_api import GraphHandle, Platform
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.graph import Graph
from repro.platforms.columnar import procedures
from repro.platforms.columnar.table import ColumnTable

__all__ = ["VirtuosoPlatform", "paper_dbms_spec"]

#: Sequential ops charged per visited edge endpoint (decompression +
#: scan; the dominant term of the paper's CPU profile).
OPS_PER_ENDPOINT = 3.0
#: Random accesses charged per outbound-edge lookup.
ACCESSES_PER_LOOKUP = 2.0
#: Working memory per vertex of traversal state (border hash, labels).
STATE_BYTES_PER_VERTEX = 24.0


#: The procedures the bulk path runs over the graph's CSR, each as
#: ``procedure(graph, params)``; the rest run vertex by vertex.
_CSR_PROCEDURES = {
    Algorithm.BFS: lambda graph, params: procedures.csr_bfs_distances(
        graph, params.resolve_bfs_source(graph)
    ),
    Algorithm.CONN: lambda graph, params: (
        procedures.csr_connected_components(graph)
    ),
    Algorithm.PR: lambda graph, params: procedures.csr_pagerank(
        graph, params.pagerank_damping, params.pagerank_iterations
    ),
}


def paper_dbms_spec() -> ClusterSpec:
    """The paper's DBMS machine: 12-core/24-thread Xeon E5-2630, 2.3 GHz."""
    return ClusterSpec.from_profile("paper-dbms", name="dbms-24t")


class VirtuosoPlatform(Platform):
    """Column-store platform (OpenLink Virtuoso stand-in)."""

    name = "virtuoso"
    single_machine = True

    def __init__(self, cluster: ClusterSpec | None = None, bulk: bool = True):
        super().__init__(cluster or paper_dbms_spec())
        if self.cluster.num_workers != 1:
            raise ValueError("the column store is a single-machine DBMS")
        #: BFS, CONN and PR over the graph's CSR; ``bulk=False`` runs
        #: them vertex by vertex (the cost profile is identical either
        #: way).
        self.bulk = bulk

    def _load(self, name: str, graph: Graph) -> GraphHandle:
        undirected = graph.to_undirected()
        # Each edge is stored as both of its arcs.
        sources, targets = undirected.edges.T
        weights = undirected.weights
        table = ColumnTable.arc_table(
            np.concatenate([sources, targets]),
            np.concatenate([targets, sources]),
            None if weights is None else np.concatenate([weights, weights]),
            name="sp_edge",
        )
        fields_per_arc = 2 if weights is None else 3
        arcs = table.num_rows
        vertices = undirected.vertices.tolist()
        storage = table.compressed_bytes + len(vertices) * STATE_BYTES_PER_VERTEX
        meter = CostMeter(self.cluster)
        meter.allocate_memory(0, storage)  # raises if the table cannot fit
        meter.release_memory(0, storage)
        # ETL: bulk load — read, sort by source key, compress columns.
        file_bytes = etl.edge_file_bytes(arcs)
        etl_time = (
            file_bytes / self.cluster.hardware.disk.seq_bandwidth
            + etl.sort_seconds(arcs, self.cluster)
            + etl.parse_seconds(fields_per_arc * arcs, 2.0, self.cluster)
        )
        return GraphHandle(
            name=name,
            platform=self.name,
            graph=undirected,
            storage_bytes=storage,
            etl_simulated_seconds=etl_time,
            detail={"table": table, "vertices": vertices},
        )

    def _execute(
        self, handle: GraphHandle, algorithm: Algorithm, params: AlgorithmParams
    ) -> tuple[object, RunProfile]:
        table: ColumnTable = handle.detail["table"]
        vertices: list[int] = handle.detail["vertices"]
        meter = CostMeter(self.cluster, faults=self.faults, sinks=self.sinks)
        meter.allocate_memory(0, handle.storage_bytes)
        meter.charge_startup()
        meter.begin_round(algorithm.value.lower())
        try:
            output, stats = self._run_procedure(
                table, vertices, handle, algorithm, params
            )
            meter.charge_compute(0, stats.endpoints_visited * OPS_PER_ENDPOINT)
            meter.charge_random_access(
                0, stats.random_lookups * ACCESSES_PER_LOOKUP
            )
        finally:
            meter.end_round(active_vertices=len(vertices))
            meter.release_memory(0, handle.storage_bytes)
        return output, meter.profile

    def _run_procedure(self, table, vertices, handle, algorithm, params):
        if self.bulk and algorithm in _CSR_PROCEDURES:
            return _CSR_PROCEDURES[algorithm](handle.graph, params)
        if algorithm is Algorithm.BFS:
            start = params.resolve_bfs_source(handle.graph)
            return procedures.bfs_distances(table, vertices, start)
        if algorithm is Algorithm.CONN:
            return procedures.connected_components(table, vertices)
        if algorithm is Algorithm.STATS:
            return procedures.clustering_statistics(table, vertices)
        if algorithm is Algorithm.CD:
            return procedures.label_propagation(
                table,
                vertices,
                params.cd_max_iterations,
                params.cd_hop_attenuation,
                params.cd_node_preference,
            )
        if algorithm is Algorithm.PR:
            return procedures.pagerank(
                table,
                vertices,
                params.pagerank_damping,
                params.pagerank_iterations,
            )
        if algorithm is Algorithm.SSSP:
            source = params.resolve_sssp_source(handle.graph)
            return procedures.sssp_distances(table, vertices, source)
        if algorithm is Algorithm.LCC:
            return procedures.local_clustering(table, vertices)
        if algorithm is Algorithm.EVO:
            return procedures.forest_fire(
                table,
                vertices,
                params.evo_new_vertices,
                params.evo_p_forward,
                params.evo_max_hops,
                params.evo_seed,
            )
        raise ValueError(f"unsupported algorithm {algorithm}")
