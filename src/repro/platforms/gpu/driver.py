"""Medusa (GPU) platform driver."""

from __future__ import annotations

from repro.core import etl
from repro.core.cost import ClusterSpec, CostMeter
from repro.core.platform_api import GraphHandle
from repro.graph.graph import Graph
from repro.platforms.gpu.engine import EDGE_BYTES, VERTEX_BYTES, GPUEngine, gpu_device_spec
from repro.platforms.pregel.driver import GiraphPlatform

__all__ = ["MedusaPlatform"]


class MedusaPlatform(GiraphPlatform):
    """GPU BSP platform (Medusa stand-in).

    Reuses the Giraph driver's vertex programs and output extraction —
    Medusa's programming model is vertex-centric message passing — but
    executes them on the GPU engine: dense kernels, warp-granular
    costs, device-memory limits, PCIe ETL. Where the graph fits the
    device, thousands of cores make it the fastest platform; one byte
    past device memory and it fails outright (the paper's GPU study's
    recurring observation).
    """

    name = "medusa"
    single_machine = True

    def __init__(self, cluster: ClusterSpec | None = None):
        super().__init__(cluster or gpu_device_spec())
        if self.cluster.num_workers != 1:
            raise ValueError("a GPU device is a single worker")

    def _load(self, name: str, graph: Graph) -> GraphHandle:
        undirected = graph.to_undirected()
        storage = (
            undirected.num_vertices * VERTEX_BYTES
            + 2 * undirected.num_edges * EDGE_BYTES
        )
        # The CSR graph must fit device memory before anything runs.
        meter = CostMeter(self.cluster)
        meter.allocate_memory(0, storage)
        meter.release_memory(0, storage)
        # ETL: parse on the host, then copy over PCIe (the disk's
        # sequential bandwidth plays the transfer-link role in the
        # device spec).
        file_bytes = etl.edge_file_bytes(undirected.num_edges)
        etl_time = (
            self.cluster.hardware.startup_seconds
            + etl.parse_seconds(undirected.num_edges, 4.0, self.cluster)
            + (file_bytes + storage) / self.cluster.hardware.disk.seq_bandwidth
        )
        return GraphHandle(
            name=name,
            platform=self.name,
            graph=undirected,
            storage_bytes=storage,
            etl_simulated_seconds=etl_time,
        )

    def _engine(self, graph: Graph, meter: CostMeter) -> GPUEngine:
        return GPUEngine(graph, self.cluster, meter)
