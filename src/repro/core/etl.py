"""ETL cost building blocks.

The paper excludes ETL from algorithm runtimes and notes "Comparing
ETL times of different platforms is left as future work." This module
implements that future work's cost side: composable terms each
platform driver combines into a simulated load time, reported on the
:class:`~repro.core.platform_api.GraphHandle` and compared by
``benchmarks/test_future_etl_comparison.py``.

All terms take the platform's :class:`~repro.core.cost.ClusterSpec`,
so ETL scales with the same simulated hardware as the algorithms.
"""

from __future__ import annotations

from repro.core.cost import ClusterSpec

__all__ = [
    "edge_file_bytes",
    "distributed_read_seconds",
    "parse_seconds",
    "partition_shuffle_seconds",
    "replicated_write_seconds",
    "sequential_insert_seconds",
    "sort_seconds",
]

#: Bytes per edge in the interchange edge-list file.
EDGE_FILE_BYTES = 16.0


def edge_file_bytes(num_edges: int) -> float:
    """Size of the edge-list file being loaded."""
    return EDGE_FILE_BYTES * num_edges


def distributed_read_seconds(num_bytes: float, spec: ClusterSpec) -> float:
    """Reading the input in parallel from distributed storage."""
    return num_bytes / (spec.num_workers * spec.hardware.disk.seq_bandwidth)


def parse_seconds(records: float, ops_per_record: float, spec: ClusterSpec) -> float:
    """Deserializing/parsing records across all cores."""
    return (records * ops_per_record) / (
        spec.num_workers * spec.hardware.cpu.worker_ops_per_second
    )


def partition_shuffle_seconds(num_bytes: float, spec: ClusterSpec) -> float:
    """Repartitioning loaded data: a (W-1)/W fraction crosses the wire."""
    if spec.num_workers <= 1:
        return 0.0
    remote = num_bytes * (spec.num_workers - 1) / spec.num_workers
    return remote / (spec.num_workers * spec.hardware.nic.bandwidth)


def replicated_write_seconds(
    num_bytes: float, replication: int, spec: ClusterSpec
) -> float:
    """Writing with N-way replication (replicas also cross the wire)."""
    hardware = spec.hardware
    disk = num_bytes * replication / (spec.num_workers * hardware.disk.seq_bandwidth)
    if spec.num_workers <= 1 or replication <= 1:
        return disk
    network = (
        num_bytes * (replication - 1) / (spec.num_workers * hardware.nic.bandwidth)
    )
    return disk + network


def sequential_insert_seconds(
    records: float, accesses_per_record: float, spec: ClusterSpec
) -> float:
    """Pointer-updating inserts (graph-database store building)."""
    return records * accesses_per_record * spec.hardware.cpu.random_access_seconds


def sort_seconds(records: float, spec: ClusterSpec) -> float:
    """Sorting records during load (column-store key ordering)."""
    import math

    if records < 2:
        return 0.0
    ops = records * math.log2(records) * 2.0
    return ops / (spec.num_workers * spec.hardware.cpu.worker_ops_per_second)
