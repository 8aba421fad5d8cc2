"""The MapReduce execution engine.

Implements the Hadoop MapReduce v2 dataflow faithfully enough to
reproduce its benchmark behaviour:

* **map** — each input record is deserialized, mapped, and the
  emitted records are partitioned by key hash and spilled to local
  disk;
* **combine** — optional map-side pre-aggregation per partition;
* **shuffle** — every reducer fetches its partition from every map
  task; a ``(W-1)/W`` fraction of the bytes crosses the network;
* **sort** — merge-sorting the fetched runs (n log n compute);
* **reduce** — grouped records are reduced and the output written to
  HDFS with 3× replication (two replicas cross the network).

The engine *streams*: per-worker memory is a fixed sort buffer, not
the dataset, which is precisely why the simulated MapReduce never
fails with out-of-memory while the in-memory platforms do — and why
it pays the full disk round-trip for the graph on *every* iteration
of an iterative algorithm, the paper's "two orders of magnitude
slower" behaviour.

Hadoop counters are supported; drivers use them for loop termination
(e.g. "no vertex changed its distance this iteration").
"""

from __future__ import annotations

import abc
import math
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.core.cost import ClusterSpec, CostMeter
from repro.platforms.mapreduce.batch import (
    RecordBatch,
    combine_min_messages,
    repr_sort_permutation,
    str_key_workers,
)

__all__ = [
    "MapReduceJob",
    "JobResult",
    "MapReduceEngine",
    "record_size",
    "record_bytes_total",
    "reduce_worker",
]

#: Serialized size of one key-value record (Writable overhead included).
RECORD_BYTES = 24.0
#: Extra serialized bytes per element for records whose value is a
#: collection (e.g. adjacency lists).
ELEMENT_BYTES = 8.0
#: Per-record CPU cost of (de)serialization + framework bookkeeping,
#: in cost-model operations. MapReduce touches every record through
#: Writable serialization on each pass, unlike the in-memory engines.
RECORD_CPU_OPS = 8.0
#: Default per-worker sort-buffer memory (io.sort.mb); capped at a
#: fraction of the worker's memory on small configurations, as an
#: operator would tune it.
SORT_BUFFER_BYTES = 100 * 2 ** 20
SORT_BUFFER_MEMORY_FRACTION = 0.2
#: HDFS replication factor; replicas beyond the first cross the network.
HDFS_REPLICATION = 3


def record_size(key: Any, value: Any) -> float:
    """Approximate serialized size of one key-value record."""
    size = RECORD_BYTES
    if isinstance(value, (list, tuple, set, frozenset)):
        size += ELEMENT_BYTES * len(value)
        for element in value:
            if isinstance(element, (list, tuple, set, frozenset)):
                size += ELEMENT_BYTES * len(element)
    return size


def record_bytes_total(records: list[tuple[Any, Any]]) -> float:
    """Batched equivalent of ``sum(record_size(k, v) for k, v in records)``.

    Counts collection elements in one fused pass and applies the
    per-record constants once at the end. Exact, not approximate:
    every term is an integer-valued float below 2**53, so
    ``RECORD_BYTES * n + ELEMENT_BYTES * elements`` is bit-identical
    to the scalar per-record sum (see ``CostMeter.charge_worker_compute``
    for the argument).
    """
    elements = 0
    for _key, value in records:
        if isinstance(value, (list, tuple, set, frozenset)):
            elements += len(value)
            for element in value:
                if isinstance(element, (list, tuple, set, frozenset)):
                    elements += len(element)
    return RECORD_BYTES * len(records) + ELEMENT_BYTES * elements


def reduce_worker(key: Any, num_workers: int) -> int:
    """Stable reduce-task assignment (Hadoop's HashPartitioner).

    Integer keys keep Hadoop's ``key % num_reducers`` placement; any
    other key hashes via CRC32 of its ``repr`` so the assignment is
    identical across interpreter processes. The builtin ``hash`` is
    *not* usable here: ``hash(str)`` is salted by ``PYTHONHASHSEED``,
    so per-worker charges — and therefore simulated times — would
    differ between the parallel suite runner's worker processes and a
    sequential run.
    """
    if isinstance(key, int):
        return key % num_workers
    return zlib.crc32(repr(key).encode("utf-8")) % num_workers


class MapReduceJob(abc.ABC):
    """One MapReduce job: map, optional combine, reduce.

    Jobs whose records fit the vertex-keyed columnar shape — int64
    keys, an adjacency list (weighted for SSSP) plus scalar state
    columns, messages that broadcast one scalar (plus the arc weight)
    to every neighbor and combine with ``min`` — additionally
    implement the ``batch_*`` hooks and set :attr:`supports_batch`,
    unlocking the engine's
    :class:`~repro.platforms.mapreduce.batch.RecordBatch` executor.
    A job that instead ships whole adjacency lists to the neighbors
    (STATS) implements :meth:`batch_emitters` and :meth:`batch_reduce`
    and runs through :meth:`MapReduceEngine.run_broadcast_job`.
    """

    #: Job name used in round labels.
    name: str = "job"

    #: Whether the ``batch_*`` hooks are implemented; the engine falls
    #: back to the scalar record path otherwise.
    supports_batch: bool = False

    def batch_emitters(self, batch: RecordBatch) -> np.ndarray:
        """Bool mask over records that broadcast to their neighbors."""
        raise NotImplementedError

    def batch_message_values(self, batch: RecordBatch) -> np.ndarray:
        """Scalar each emitting record sends (indexed like the batch)."""
        raise NotImplementedError

    def batch_apply(
        self,
        batch: RecordBatch,
        minimum: np.ndarray,
        has_message: np.ndarray,
        counters: dict,
    ) -> dict[str, np.ndarray]:
        """New state columns after digesting the combined messages."""
        raise NotImplementedError

    def batch_reduce(
        self, batch: RecordBatch, received: np.ndarray, order: np.ndarray
    ) -> tuple[list[tuple[Any, Any]], np.ndarray]:
        """Reduce every row of a broadcast job at once.

        ``received`` counts the lists shipped to each row and
        ``order`` is the repr-sorted row permutation. Returns the
        records :meth:`reduce` would emit, key after key in that
        order, and how many each row emitted.
        """
        raise NotImplementedError

    def batch_state_elements(self, batch: RecordBatch) -> int:
        """Top-level elements of one row's shuffled state record.

        The default state record is ``("A", adj, *columns)``; a job
        that keeps a column out of the shuffle overrides this so the
        executor charges the bytes the scalar map emits.
        """
        return 2 + len(batch.columns)

    @abc.abstractmethod
    def map(self, key: Any, value: Any, counters: dict) -> Iterable[tuple[Any, Any]]:
        """Emit intermediate records for one input record."""

    @abc.abstractmethod
    def reduce(
        self, key: Any, values: list, counters: dict
    ) -> Iterable[tuple[Any, Any]]:
        """Emit output records for one grouped key."""

    def combine(self, key: Any, values: list) -> list:
        """Map-side pre-aggregation (default: pass-through)."""
        return values


@dataclass
class JobResult:
    """Output of one job execution.

    ``output`` is a record list on the scalar path and a
    :class:`~repro.platforms.mapreduce.batch.RecordBatch` on the
    columnar path (the driver feeds it straight into the next job).
    """

    output: list[tuple[Any, Any]] | RecordBatch
    counters: dict = field(default_factory=dict)


class MapReduceEngine:
    """Executes job chains over a simulated YARN cluster."""

    def __init__(
        self,
        spec: ClusterSpec,
        meter: CostMeter | None = None,
        bulk: bool = True,
    ):
        self.spec = spec
        self.meter = meter or CostMeter(spec)
        #: Batched shuffle accounting (fused byte totals, bincount
        #: per-worker charges); ``bulk=False`` forces the per-record
        #: scalar charges. The cost profile is identical either way.
        self.bulk = bulk
        self.sort_buffer_bytes = min(
            SORT_BUFFER_BYTES,
            SORT_BUFFER_MEMORY_FRACTION * spec.hardware.memory_bytes_per_worker,
        )
        # The streaming engine holds only sort buffers in memory.
        for worker in range(spec.num_workers):
            self.meter.allocate_memory(worker, self.sort_buffer_bytes)

    def close(self) -> None:
        """Release the engine's sort-buffer memory."""
        for worker in range(self.spec.num_workers):
            self.meter.release_memory(worker, self.sort_buffer_bytes)

    def run_job(
        self, job: MapReduceJob, input_records: list[tuple[Any, Any]] | RecordBatch
    ) -> JobResult:
        """Run one job: map, shuffle/sort, reduce, with cost charges.

        A :class:`RecordBatch` input selects the columnar executor
        (requires ``bulk=True`` and a batch-capable job); its charges
        and output are bit-identical to running the same job over
        ``batch.to_pairs()`` on the scalar path.
        """
        if isinstance(input_records, RecordBatch):
            if not (self.bulk and job.supports_batch):
                raise TypeError(
                    f"job {job.name} cannot run columnar "
                    f"(bulk={self.bulk}, supports_batch={job.supports_batch})"
                )
            return self._run_job_batch(job, input_records)
        meter = self.meter
        spec = self.spec
        counters: dict = {}

        # Job submission (YARN scheduling, container spin-up).
        meter.charge_startup()

        # ---- map phase ---------------------------------------------------
        meter.begin_round(f"map-{job.name}")
        input_bytes = self._records_bytes(input_records)
        meter.charge_disk_read(None, input_bytes)

        intermediate: list[tuple[Any, Any]] = []
        if self.bulk:
            emit_counts: list[int] = []
            for key, value in input_records:
                emitted = list(job.map(key, value, counters))
                emit_counts.append(len(emitted))
                intermediate.extend(emitted)
            # Input splits are assigned round-robin by record index.
            self._charge_records_bulk(
                np.arange(len(input_records)) % spec.num_workers,
                1.0 + np.asarray(emit_counts, dtype=np.float64),
            )
        else:
            per_worker_records = [0.0] * spec.num_workers
            for index, (key, value) in enumerate(input_records):
                worker = index % spec.num_workers  # input splits round-robin
                emitted = list(job.map(key, value, counters))
                per_worker_records[worker] += 1 + len(emitted)
                intermediate.extend(emitted)
            for worker, records in enumerate(per_worker_records):
                meter.charge_compute(worker, records * RECORD_CPU_OPS)

        # Map-side combine per (map task, key) group.
        grouped: dict[Any, list] = {}
        for key, value in intermediate:
            grouped.setdefault(key, []).append(value)
        combined: list[tuple[Any, Any]] = []
        for key, values in grouped.items():
            for value in job.combine(key, values):
                combined.append((key, value))
        map_output_bytes = self._records_bytes(combined)
        # Spill to local disk, then reducers fetch.
        meter.charge_disk_write(None, map_output_bytes)
        meter.end_round(active_vertices=len(input_records))
        self._shuffle_round(job, map_output_bytes, len(combined))

        # ---- reduce phase ---------------------------------------------------
        meter.begin_round(f"reduce-{job.name}")
        by_key: dict[Any, list] = {}
        for key, value in combined:
            by_key.setdefault(key, []).append(value)
        keys = sorted(by_key, key=repr)
        output: list[tuple[Any, Any]] = []
        if self.bulk:
            key_records: list[int] = []
            for key in keys:
                emitted = list(job.reduce(key, by_key[key], counters))
                key_records.append(len(by_key[key]) + len(emitted))
                output.extend(emitted)
            self._charge_records_bulk(
                self._reduce_workers(keys),
                np.asarray(key_records, dtype=np.float64),
            )
        else:
            reduce_per_worker = [0.0] * spec.num_workers
            for key in keys:
                worker = reduce_worker(key, spec.num_workers)
                emitted = list(job.reduce(key, by_key[key], counters))
                reduce_per_worker[worker] += len(by_key[key]) + len(emitted)
                output.extend(emitted)
            for worker, records in enumerate(reduce_per_worker):
                meter.charge_compute(worker, records * RECORD_CPU_OPS)
        self._write_output(self._records_bytes(output))
        meter.end_round()
        return JobResult(output=output, counters=counters)

    # -- columnar execution ------------------------------------------------

    def _run_job_batch(self, job: MapReduceJob, batch: RecordBatch) -> JobResult:
        """Columnar map/combine/shuffle/reduce over a :class:`RecordBatch`.

        Every charge mirrors the scalar path's charge sequence and
        value exactly: byte totals use the same
        ``RECORD_BYTES * count + ELEMENT_BYTES * elements`` closed
        form as :func:`record_bytes_total` (element counts derived
        from the batch's degree column instead of walking tuples), and
        per-worker record tallies are the same integer-valued
        ``np.bincount`` sums. Output records come back repr-sorted by
        key, exactly as the scalar reduce emits them.
        """
        meter = self.meter
        spec = self.spec
        counters: dict = {}
        num_records = len(batch)
        num_columns = len(batch.columns)
        degrees = batch.degrees
        total_adjacency = batch.total_adjacency

        meter.charge_startup()

        # ---- map phase ---------------------------------------------------
        meter.begin_round(f"map-{job.name}")
        # Input value tuple is (adj, *columns): 1 + num_columns
        # top-level elements plus the adjacency elements.
        input_elements = (1 + num_columns) * num_records + total_adjacency
        input_bytes = (
            RECORD_BYTES * num_records + ELEMENT_BYTES * input_elements
        )
        meter.charge_disk_read(None, input_bytes)

        emitters = job.batch_emitters(batch)
        message_counts = degrees * emitters
        targets, payloads = batch.gather_messages(
            emitters, job.batch_message_values(batch)
        )
        # Each record emits its own state record plus its messages;
        # input splits are assigned round-robin by record index.
        self._charge_records_bulk(
            np.arange(num_records, dtype=np.int64) % spec.num_workers,
            1.0 + (1 + message_counts).astype(np.float64),
        )

        # Map-side combine: per key, the state record survives and all
        # candidate messages fold into one minimum.
        minimum, has_message = combine_min_messages(
            num_records, targets, payloads
        )
        message_keys = int(has_message.sum())
        combined_count = num_records + message_keys
        # State records serialize as ("A", adj, *state); combined
        # messages as ("D", value).
        combined_elements = (
            job.batch_state_elements(batch) * num_records
            + total_adjacency
            + 2 * message_keys
        )
        map_output_bytes = (
            RECORD_BYTES * combined_count + ELEMENT_BYTES * combined_elements
        )
        meter.charge_disk_write(None, map_output_bytes)
        meter.end_round(active_vertices=num_records)
        self._shuffle_round(job, map_output_bytes, combined_count)

        # ---- reduce phase ---------------------------------------------------
        meter.begin_round(f"reduce-{job.name}")
        # Each key groups its state record plus at most one combined
        # message and re-emits one state record.
        self._charge_records_bulk(
            batch.keys % spec.num_workers,
            (2 + has_message).astype(np.float64),
        )
        new_columns = job.batch_apply(batch, minimum, has_message, counters)
        output = RecordBatch(
            keys=batch.keys,
            adj_offsets=batch.adj_offsets,
            adj_targets=batch.adj_targets,
            columns={
                name: new_columns.get(name, column)
                for name, column in batch.columns.items()
            },
            adj_weights=batch.adj_weights,
        ).reorder(repr_sort_permutation(batch.keys))
        output_elements = (1 + num_columns) * num_records + total_adjacency
        self._write_output(
            RECORD_BYTES * num_records + ELEMENT_BYTES * output_elements
        )
        meter.end_round()
        return JobResult(output=output, counters=counters)

    def run_broadcast_job(
        self, job: MapReduceJob, batch: RecordBatch
    ) -> JobResult:
        """Columnar adjacency broadcast (the STATS triangle job).

        Each row emits its state record ``("A", adj)`` and, when
        :meth:`~MapReduceJob.batch_emitters` selects it, one ``("N",
        adj)`` record per neighbor; nothing combines map-side. Its
        charges and output are bit-identical to :meth:`run_job` over
        the batch's ``(key, adj)`` records, in closed form: every
        shipped record holds two top-level elements plus its sender's
        list. The reduce round runs the job's
        :meth:`~MapReduceJob.batch_reduce` over the rows in repr-sorted
        key order and returns its records, so a record-path job can
        follow.
        """
        meter = self.meter
        num_records = len(batch)
        degrees = batch.degrees
        total_adjacency = batch.total_adjacency

        meter.charge_startup()

        # ---- map phase ---------------------------------------------------
        meter.begin_round(f"map-{job.name}")
        meter.charge_disk_read(
            None, RECORD_BYTES * num_records + ELEMENT_BYTES * total_adjacency
        )
        shipped = degrees * job.batch_emitters(batch)
        # Input splits are assigned round-robin by record index.
        self._charge_records_bulk(
            np.arange(num_records, dtype=np.int64) % self.spec.num_workers,
            (2 + shipped).astype(np.float64),
        )
        combined_count = num_records + int(shipped.sum())
        combined_elements = (
            2 * combined_count + total_adjacency + int((shipped * degrees).sum())
        )
        map_output_bytes = (
            RECORD_BYTES * combined_count + ELEMENT_BYTES * combined_elements
        )
        meter.charge_disk_write(None, map_output_bytes)
        meter.end_round(active_vertices=num_records)
        self._shuffle_round(job, map_output_bytes, combined_count)

        # ---- reduce phase ---------------------------------------------------
        meter.begin_round(f"reduce-{job.name}")
        received = np.bincount(
            batch.adj_targets,
            weights=np.repeat(shipped > 0, degrees),
            minlength=num_records,
        ).astype(np.int64)
        order = repr_sort_permutation(batch.keys)
        output, emitted = job.batch_reduce(batch, received, order)
        # Each key groups its state record and the lists shipped to it.
        self._charge_records_bulk(
            batch.keys % self.spec.num_workers,
            (1 + received + emitted).astype(np.float64),
        )
        self._write_output(self._records_bytes(output))
        meter.end_round()
        return JobResult(output=output, counters={})

    def _shuffle_round(
        self, job: MapReduceJob, map_output_bytes: float, count: int
    ) -> None:
        """Reducers fetch the spilled map output and merge-sort it."""
        meter = self.meter
        num_workers = self.spec.num_workers
        meter.begin_round(f"shuffle-{job.name}")
        remote_fraction = (
            (num_workers - 1) / num_workers if num_workers > 1 else 0.0
        )
        meter.charge_shuffle(map_output_bytes * remote_fraction, count=count)
        meter.charge_disk_read(None, map_output_bytes)
        if count:
            sort_ops = count * max(1.0, math.log2(count)) * 2.0
            for worker in range(num_workers):
                meter.charge_compute(worker, sort_ops / num_workers)
        meter.end_round()

    def _write_output(self, output_bytes: float) -> None:
        """HDFS write with replication; replicas cross the network."""
        meter = self.meter
        meter.charge_disk_write(None, output_bytes * HDFS_REPLICATION)
        meter.charge_shuffle(output_bytes * (HDFS_REPLICATION - 1))

    # -- batched accounting ------------------------------------------------

    def _records_bytes(self, records: list[tuple[Any, Any]]) -> float:
        """Serialized size of a record batch (fused pass when bulk)."""
        if self.bulk:
            return record_bytes_total(records)
        return sum(record_size(k, v) for k, v in records)

    def _reduce_workers(self, keys: list) -> np.ndarray:
        """Vectorized :func:`reduce_worker` over a batch of keys.

        Integer keys — the common case, vertex ids — reduce in one
        modulo over the array; homogeneous str keys hash in one
        vectorized CRC32 pass; anything else falls back to the scalar
        partitioner per key.
        """
        try:
            key_array = np.asarray(keys, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            str_workers = str_key_workers(keys, self.spec.num_workers)
            if str_workers is not None:
                return str_workers
            return np.fromiter(
                (reduce_worker(key, self.spec.num_workers) for key in keys),
                dtype=np.int64,
                count=len(keys),
            )
        return key_array % self.spec.num_workers

    def _charge_records_bulk(
        self, workers: np.ndarray, records: np.ndarray
    ) -> None:
        """Charge per-record CPU for a batch grouped by worker.

        Integer record counts sum exactly under float64 regardless of
        order, so one charge per worker is bit-identical to the scalar
        per-record accumulation.
        """
        self.meter.charge_worker_compute(
            RECORD_CPU_OPS
            * np.bincount(workers, weights=records, minlength=self.spec.num_workers)
        )
