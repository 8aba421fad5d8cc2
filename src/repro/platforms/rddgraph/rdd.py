"""A resilient-distributed-dataset substrate with cost accounting.

Implements the Spark-style dataset abstraction the GraphX layer needs:
immutable partitioned collections with *narrow* transformations
(``map``, ``filter``, ``flat_map``, ``map_values`` — no data movement)
and *wide* transformations (``reduce_by_key``, ``group_by_key``,
``join``, ``distinct`` — hash-repartitioning shuffles). Wide
operations between identically partitioned RDDs skip the shuffle, as
Spark's co-partitioning optimization does; the GraphX layer relies on
this for its vertex joins.

Every transformation really executes (records are Python objects) and
charges the shared :class:`~repro.core.cost.CostMeter`:

* per-record CPU on the owning worker (JVM-object handling costs more
  per record than Giraph's primitive arrays — ``RECORD_CPU_OPS``);
* shuffle bytes for wide dependencies;
* cached-RDD memory: a materialized RDD occupies worker memory until
  :meth:`RDD.unpersist` — iterative jobs that keep a previous
  generation alive (as GraphX's Pregel does for lineage) hold two
  graphs' worth of memory, which is exactly how the simulated GraphX
  runs out of memory on workloads the leaner Giraph representation
  survives.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Any, Callable, Iterable

from repro.core.cost import ClusterSpec, CostMeter
from repro.graph.kernels import hash_worker

__all__ = ["RDDContext", "RDD"]

#: JVM-ish memory footprint per cached record (object header, boxing,
#: tuple wrapper). Roughly 2-3x Giraph's primitive-array bytes/edge.
RECORD_MEMORY_BYTES = 48.0
#: Extra bytes per element for collection-valued records.
ELEMENT_MEMORY_BYTES = 16.0
#: CPU ops charged per record touched by a transformation.
RECORD_CPU_OPS = 2.0
#: Serialized bytes per record crossing the network in a shuffle,
#: before accounting for collection-valued payloads (see
#: :func:`_record_shuffle_bytes`).
SHUFFLE_RECORD_BYTES = 24.0
#: Serialized bytes per element of a collection-valued record.
SHUFFLE_ELEMENT_BYTES = 8.0


def _key_partition(key: Any, num_partitions: int) -> int:
    """Deterministic hash partitioning (stable across runs).

    Non-integer keys hash via CRC32 of their ``repr`` rather than the
    builtin ``hash``, whose string salt (``PYTHONHASHSEED``) would
    place records differently in each interpreter process — the
    parallel suite runner requires identical placement everywhere.
    """
    if isinstance(key, int):
        return hash_worker(key, num_partitions)
    return (zlib.crc32(repr(key).encode("utf-8")) & 0x7FFFFFFF) % num_partitions


def _value_memory(value: Any) -> float:
    """JVM-ish footprint of one record value (one nesting level deep)."""
    if isinstance(value, (list, tuple, set, frozenset)):
        size = ELEMENT_MEMORY_BYTES * len(value)
        for element in value:
            if isinstance(element, (list, tuple, set, frozenset, dict)):
                size += ELEMENT_MEMORY_BYTES * len(element)
        return size
    if isinstance(value, dict):
        return 2 * ELEMENT_MEMORY_BYTES * len(value)
    return 0.0


def _record_memory(record: Any) -> float:
    size = RECORD_MEMORY_BYTES
    if isinstance(record, tuple) and len(record) == 2:
        size += _value_memory(record[1])
    return size


def _record_shuffle_bytes(record: Any) -> float:
    """Serialized size of one record on the wire."""
    size = SHUFFLE_RECORD_BYTES
    if isinstance(record, tuple) and len(record) == 2:
        size += _value_memory(record[1]) * (SHUFFLE_ELEMENT_BYTES / 16.0)
    return size


class RDDContext:
    """Factory and bookkeeper for RDDs (the SparkContext analogue)."""

    def __init__(self, spec: ClusterSpec, meter: CostMeter | None = None):
        self.spec = spec
        self.meter = meter or CostMeter(spec)
        self._next_id = itertools.count()
        self._stage = itertools.count()
        #: Each cached RDD's bytes per worker, released on unpersist.
        self._live: dict[int, list[float]] = {}

    # -- RDD creation -----------------------------------------------------

    def parallelize(self, records: Iterable[Any], name: str = "data") -> "RDD":
        """Distribute a collection across the cluster's partitions."""
        records = list(records)
        partitions: list[list] = [[] for _ in range(self.spec.num_workers)]
        for index, record in enumerate(records):
            partitions[index % self.spec.num_workers].append(record)
        return self._materialize(partitions, name, partitioner=None)

    def parallelize_pairs(self, records: Iterable[tuple], name: str = "pairs") -> "RDD":
        """Distribute key-value pairs, hash-partitioned by key."""
        partitions: list[list] = [[] for _ in range(self.spec.num_workers)]
        for record in records:
            partitions[_key_partition(record[0], self.spec.num_workers)].append(record)
        return self._materialize(partitions, name, partitioner="hash")

    # -- internal ----------------------------------------------------------

    def _materialize(
        self, partitions: list[list], name: str, partitioner: str | None
    ) -> "RDD":
        rdd = RDD(self, partitions, name, partitioner)
        sizes = [
            sum(_record_memory(r) for r in partition) for partition in partitions
        ]
        for worker, part_bytes in enumerate(sizes):
            self.meter.allocate_memory(worker, part_bytes)
        self._live[rdd.rdd_id] = sizes
        return rdd

    def _release(self, rdd: "RDD") -> None:
        for worker, part_bytes in enumerate(self._live.pop(rdd.rdd_id, ())):
            self.meter.release_memory(worker, part_bytes)

class RDD:
    """An immutable, partitioned dataset (already materialized)."""

    def __init__(
        self,
        context: RDDContext,
        partitions: list[list],
        name: str,
        partitioner: str | None,
    ):
        self.context = context
        self.partitions = partitions
        self.name = name
        self.partitioner = partitioner
        self.rdd_id = next(context._next_id)

    # -- metadata -----------------------------------------------------------

    def count(self) -> int:
        """Number of records across all partitions."""
        return sum(len(partition) for partition in self.partitions)

    def collect(self) -> list:
        """Gather all records to the driver (charged as network)."""
        meter = self.context.meter
        meter.begin_round(f"collect-{self.name}")
        total = 0
        total_bytes = 0.0
        for worker, partition in enumerate(self.partitions):
            meter.charge_compute(worker, len(partition) * RECORD_CPU_OPS)
            total += len(partition)
            total_bytes += sum(_record_shuffle_bytes(r) for r in partition)
        meter.charge_shuffle(total_bytes, count=total)
        meter.end_round(active_vertices=total)
        return [record for partition in self.partitions for record in partition]

    def unpersist(self) -> None:
        """Release this RDD's cached memory."""
        self.context._release(self)

    # -- narrow transformations ----------------------------------------------

    def _narrow(self, name: str, transform: Callable[[list], list],
                keeps_partitioner: bool) -> "RDD":
        context = self.context
        meter = context.meter
        meter.begin_round(f"stage-{next(context._stage)}-{name}")
        new_partitions = []
        produced = 0
        for worker, partition in enumerate(self.partitions):
            result = transform(partition)
            meter.charge_compute(
                worker, (len(partition) + len(result)) * RECORD_CPU_OPS
            )
            new_partitions.append(result)
            produced += len(result)
        meter.end_round(active_vertices=produced)
        return context._materialize(
            new_partitions,
            name,
            self.partitioner if keeps_partitioner else None,
        )

    def map(self, fn: Callable[[Any], Any], name: str = "map") -> "RDD":
        """Narrow: transform every record."""
        return self._narrow(name, lambda p: [fn(r) for r in p], keeps_partitioner=False)

    def map_values(self, fn: Callable[[Any], Any], name: str = "mapValues") -> "RDD":
        """Narrow: transform pair values, keeping the partitioner."""
        return self._narrow(
            name, lambda p: [(k, fn(v)) for k, v in p], keeps_partitioner=True
        )

    def filter(self, fn: Callable[[Any], bool], name: str = "filter") -> "RDD":
        """Narrow: keep records matching the predicate."""
        return self._narrow(name, lambda p: [r for r in p if fn(r)],
                            keeps_partitioner=True)

    def flat_map(self, fn: Callable[[Any], Iterable[Any]], name: str = "flatMap") -> "RDD":
        """Narrow: expand every record into zero or more records."""
        return self._narrow(
            name, lambda p: [out for r in p for out in fn(r)], keeps_partitioner=False
        )

    # -- wide transformations ---------------------------------------------------

    def _shuffle_pairs(self, records_by_partition: list[list], name: str) -> list[list]:
        """Hash-repartition key-value records, charging the network."""
        context = self.context
        meter = context.meter
        num_workers = context.spec.num_workers
        out: list[list] = [[] for _ in range(num_workers)]
        remote = 0
        remote_bytes = 0.0
        for worker, partition in enumerate(records_by_partition):
            for record in partition:
                target = _key_partition(record[0], num_workers)
                out[target].append(record)
                if target != worker:
                    remote += 1
                    remote_bytes += _record_shuffle_bytes(record)
        meter.charge_shuffle(remote_bytes, count=remote)
        return out

    def reduce_by_key(
        self, fn: Callable[[Any, Any], Any], name: str = "reduceByKey"
    ) -> "RDD":
        """Wide: combine pair values per key (map-side combine first)."""
        context = self.context
        meter = context.meter
        meter.begin_round(f"stage-{next(context._stage)}-{name}")
        # Map-side combine, as Spark does.
        combined: list[list] = []
        for worker, partition in enumerate(self.partitions):
            local: dict[Any, Any] = {}
            for key, value in partition:
                local[key] = fn(local[key], value) if key in local else value
            meter.charge_compute(worker, len(partition) * RECORD_CPU_OPS)
            combined.append(list(local.items()))
        shuffled = (
            combined
            if self.partitioner == "hash"
            else self._shuffle_pairs(combined, name)
        )
        new_partitions = []
        for worker, partition in enumerate(shuffled):
            final: dict[Any, Any] = {}
            for key, value in partition:
                final[key] = fn(final[key], value) if key in final else value
            meter.charge_compute(worker, len(partition) * RECORD_CPU_OPS)
            new_partitions.append(sorted(final.items(), key=lambda kv: repr(kv[0])))
        produced = sum(len(p) for p in new_partitions)
        meter.end_round(active_vertices=produced)
        return context._materialize(new_partitions, name, "hash")

    def group_by_key(self, name: str = "groupByKey") -> "RDD":
        """Wide: collect pair values per key."""
        context = self.context
        meter = context.meter
        meter.begin_round(f"stage-{next(context._stage)}-{name}")
        shuffled = (
            self.partitions
            if self.partitioner == "hash"
            else self._shuffle_pairs(self.partitions, name)
        )
        new_partitions = []
        for worker, partition in enumerate(shuffled):
            groups: dict[Any, list] = {}
            for key, value in partition:
                groups.setdefault(key, []).append(value)
            meter.charge_compute(worker, len(partition) * RECORD_CPU_OPS)
            new_partitions.append(sorted(groups.items(), key=lambda kv: repr(kv[0])))
        meter.end_round(active_vertices=sum(len(p) for p in new_partitions))
        return context._materialize(new_partitions, name, "hash")

    def join(self, other: "RDD", name: str = "join") -> "RDD":
        """Inner join on keys → records ``(key, (left, right))``."""
        return self._join(other, name, outer=False)

    def left_outer_join(self, other: "RDD", name: str = "leftOuterJoin") -> "RDD":
        """Left join → ``(key, (left, right | None))``."""
        return self._join(other, name, outer=True)

    def _join(self, other: "RDD", name: str, outer: bool) -> "RDD":
        context = self.context
        meter = context.meter
        meter.begin_round(f"stage-{next(context._stage)}-{name}")
        left = (
            self.partitions
            if self.partitioner == "hash"
            else self._shuffle_pairs(self.partitions, name)
        )
        right = (
            other.partitions
            if other.partitioner == "hash"
            else self._shuffle_pairs(other.partitions, name)
        )
        new_partitions = []
        for worker in range(context.spec.num_workers):
            right_map: dict[Any, list] = {}
            for key, value in right[worker]:
                right_map.setdefault(key, []).append(value)
            result = []
            for key, value in left[worker]:
                matches = right_map.get(key)
                if matches:
                    result.extend((key, (value, match)) for match in matches)
                elif outer:
                    result.append((key, (value, None)))
            meter.charge_compute(
                worker,
                (len(left[worker]) + len(right[worker]) + len(result))
                * RECORD_CPU_OPS,
            )
            # Hash-join probes are random accesses.
            meter.charge_random_access(worker, len(left[worker]))
            new_partitions.append(result)
        meter.end_round(active_vertices=sum(len(p) for p in new_partitions))
        return context._materialize(new_partitions, name, "hash")

    def distinct(self, name: str = "distinct") -> "RDD":
        """Wide: deduplicate records via a shuffle."""
        context = self.context
        meter = context.meter
        meter.begin_round(f"stage-{next(context._stage)}-{name}")
        keyed = [[(record, None) for record in p] for p in self.partitions]
        shuffled = self._shuffle_pairs(keyed, name)
        new_partitions = []
        for worker, partition in enumerate(shuffled):
            seen = {key for key, _none in partition}
            meter.charge_compute(worker, len(partition) * RECORD_CPU_OPS)
            new_partitions.append(sorted(seen, key=repr))
        meter.end_round(active_vertices=sum(len(p) for p in new_partitions))
        return context._materialize(new_partitions, name, None)
