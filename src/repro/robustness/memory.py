"""Per-platform memory-footprint model and the ``--mem-limit`` knob.

The paper's Figures 4/5 report *failures* as first-class results:
Neo4j cannot process graphs larger than one machine's memory, and
GraphX runs out of memory before Giraph does on the same cluster.
This module layers a declarative footprint model over the cost
layer's byte accounting so those outcomes are reproducible:

* :data:`PLATFORM_MEMORY_MODELS` states, per platform, the bytes the
  engines charge per vertex, per undirected edge, and per worker
  (mirroring the constants in each engine — the model *predicts* what
  ``CostMeter.allocate_memory`` will observe);
* :func:`estimate_footprint` turns a graph size into a per-worker
  resident-memory floor;
* :func:`apply_mem_limit` pins a platform's simulated per-worker RAM
  to a configurable budget, so the deterministic cost accounting
  raises a typed :class:`~repro.core.errors.SimulatedOOM` at the same
  allocation — the same superstep — on every run.

Because Neo4j holds the whole record store on one machine while the
distributed platforms spread state over ``num_workers``, and GraphX's
per-edge RDD records are roughly twice Giraph's primitive adjacency,
a single shared ``--mem-limit`` reproduces the paper's qualitative
failure ordering: the graph database fails first, the RDD platform
before the BSP platform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.graph.graph import Graph

__all__ = [
    "MemoryModel",
    "PLATFORM_MEMORY_MODELS",
    "FootprintEstimate",
    "estimate_footprint",
    "parse_bytes",
    "apply_mem_limit",
]

_UNITS = {
    "": 1.0,
    "B": 1.0,
    "K": 2 ** 10,
    "M": 2 ** 20,
    "G": 2 ** 30,
    "T": 2 ** 40,
}


def parse_bytes(text: str) -> float:
    """Parse a human byte count: ``"65536"``, ``"64K"``, ``"1.5G"``.

    Suffixes are binary (K=2^10, M=2^20, G=2^30, T=2^40), case
    insensitive, with an optional trailing ``B`` (``"64KB"``).
    """
    cleaned = str(text).strip().upper().replace(" ", "")
    suffix = ""
    if cleaned.endswith("B"):
        cleaned = cleaned[:-1]
    if cleaned and cleaned[-1] in _UNITS and not cleaned[-1].isdigit():
        suffix = cleaned[-1]
        cleaned = cleaned[:-1]
    try:
        value = float(cleaned)
    except ValueError:
        raise ValueError(f"unreadable byte count {text!r}") from None
    if value < 0:
        raise ValueError(f"byte count must be non-negative, got {text!r}")
    return value * _UNITS[suffix]


@dataclass(frozen=True)
class MemoryModel:
    """Resident bytes a platform charges for a loaded graph.

    Attributes
    ----------
    bytes_per_vertex:
        Resident bytes per vertex (object headers, values, indices).
    bytes_per_edge:
        Resident bytes per *undirected* edge (platforms that store
        both arcs fold the factor two in here).
    fixed_bytes_per_worker:
        Graph-independent allocations (e.g. MapReduce's sort buffer).
    distributed:
        Whether the graph state is spread over the cluster's workers;
        single-machine platforms keep everything on one worker, which
        is exactly Neo4j's memory wall.
    """

    bytes_per_vertex: float
    bytes_per_edge: float
    fixed_bytes_per_worker: float = 0.0
    distributed: bool = True


#: The engines' own byte constants, restated per undirected edge.
PLATFORM_MEMORY_MODELS: dict[str, MemoryModel] = {
    # pregel: (VERTEX_BYTES 56 + value 8) per vertex, 2 arcs x 24 B.
    "giraph": MemoryModel(bytes_per_vertex=64.0, bytes_per_edge=48.0),
    # gas: (REPLICA_BYTES 48 + value 8) per vertex, 16 B per edge.
    "graphlab": MemoryModel(bytes_per_vertex=56.0, bytes_per_edge=16.0),
    # rddgraph: 48 B per vertex record, 2 x 48 B per edge record.
    "graphx": MemoryModel(bytes_per_vertex=48.0, bytes_per_edge=96.0),
    # mapreduce: streaming records, but a fixed sort buffer per worker.
    "mapreduce": MemoryModel(
        bytes_per_vertex=24.0,
        bytes_per_edge=48.0,
        fixed_bytes_per_worker=100 * 2 ** 20,
    ),
    # graphdb: 32 B node records + 64 B relationship records, one node.
    "neo4j": MemoryModel(
        bytes_per_vertex=32.0, bytes_per_edge=64.0, distributed=False
    ),
    # columnar: compressed arc columns + 24 B per-vertex state, one node.
    "virtuoso": MemoryModel(
        bytes_per_vertex=24.0, bytes_per_edge=16.0, distributed=False
    ),
    # gpu: 24 B per vertex, 2 arcs x 8 B, one device.
    "medusa": MemoryModel(
        bytes_per_vertex=24.0, bytes_per_edge=16.0, distributed=False
    ),
    # dataflow: 40 B solution entries + 2 arcs x 16 B edge table.
    "stratosphere": MemoryModel(bytes_per_vertex=40.0, bytes_per_edge=32.0),
}


@dataclass(frozen=True)
class FootprintEstimate:
    """Predicted per-worker resident memory for one (platform, graph)."""

    platform: str
    num_vertices: int
    num_edges: int
    num_workers: int
    bytes_per_worker: float

    def fits(self, mem_limit_bytes: float) -> bool:
        """Whether the resident floor fits under a per-worker budget."""
        return self.bytes_per_worker <= mem_limit_bytes


def estimate_footprint(
    platform_name: str, graph: Graph, num_workers: int = 1
) -> FootprintEstimate:
    """Predict a platform's per-worker resident floor for a graph.

    This is the *loaded graph* footprint; message buffers and
    per-round intermediates come on top, so engines can exceed the
    estimate at run time — the estimate is a lower bound, useful for
    choosing a ``--mem-limit`` that separates platforms.
    """
    try:
        model = PLATFORM_MEMORY_MODELS[platform_name]
    except KeyError:
        raise ValueError(
            f"no memory model for platform {platform_name!r}; known: "
            f"{sorted(PLATFORM_MEMORY_MODELS)}"
        ) from None
    undirected = graph.to_undirected()
    total = (
        undirected.num_vertices * model.bytes_per_vertex
        + undirected.num_edges * model.bytes_per_edge
    )
    workers = num_workers if model.distributed else 1
    return FootprintEstimate(
        platform=platform_name,
        num_vertices=undirected.num_vertices,
        num_edges=undirected.num_edges,
        num_workers=workers,
        bytes_per_worker=model.fixed_bytes_per_worker + total / workers,
    )


def apply_mem_limit(platform, mem_limit_bytes: float):
    """Pin a platform's simulated per-worker RAM to a budget.

    Rebinds the driver's (frozen) cluster spec to a hardware profile
    with ``memory_bytes_per_worker`` replaced, returning the same platform
    instance. Every ``allocate_memory`` charge is then checked against
    the budget, so exceeding it raises the cost layer's
    ``MemoryBudgetExceeded``, which the driver API converts into a
    typed :class:`~repro.core.errors.SimulatedOOM` — at the same
    superstep on every run, since the charge sequence is deterministic.
    """
    if mem_limit_bytes <= 0:
        raise ValueError("mem limit must be positive")
    cluster = platform.cluster
    hardware = replace(cluster.hardware, memory_bytes_per_worker=float(mem_limit_bytes))
    platform.cluster = replace(cluster, hardware=hardware)
    return platform
