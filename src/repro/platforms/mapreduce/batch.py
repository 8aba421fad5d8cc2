"""Columnar record batches for the MapReduce data plane.

The scalar engine moves ``list[(key, value)]`` records through map/
combine/shuffle/reduce — one Python object per record, one dict
insertion per group. For the vertex-keyed iterative jobs (BFS, CONN,
SSSP) the whole pipeline is data-parallel over int64 keys, so the
same job can instead flow a :class:`RecordBatch`: a struct-of-arrays
layout holding the key column, the adjacency lists as one flat array
plus offsets (the CSR convention used by
:class:`repro.graph.graph.Graph`), one weight per arc for SSSP, and
the per-record scalar state as named numpy columns (int64 labels and
distances for BFS and CONN; float64 distances and a bool ``changed``
flag for SSSP).

The batch executor in :class:`~repro.platforms.mapreduce.engine.
MapReduceEngine` replaces dict-of-lists grouping with the
:mod:`repro.graph.kernels` group-reduce, per-tuple ``record_size``
with closed-form element counts, and per-key partitioning with one
vector modulo — while charging the :class:`~repro.core.cost.CostMeter`
bit-identically to the scalar path (the charges are integer-valued
floats, so pre-summed bulk totals equal the per-record accumulation
exactly; see ``CostMeter.charge_worker_compute``).

This module also hosts the vectorized CRC32 used by the reduce
partitioner's string-key fast path: one table-driven pass over an
encoded byte matrix instead of ``zlib.crc32(repr(key))`` per key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.graph.graph import Graph
from repro.graph.kernels import csr_gather, group_reduce

__all__ = [
    "RecordBatch",
    "repr_sort_permutation",
    "crc32_rows",
    "str_key_workers",
]


def repr_sort_permutation(keys: np.ndarray) -> np.ndarray:
    """Permutation ordering int64 keys by ``repr`` (decimal-string) order.

    The scalar reduce phase sorts grouped keys with
    ``sorted(by_key, key=repr)``; for non-negative integers that is
    lexicographic order of their decimal strings, which numpy's
    ``U``-dtype sort reproduces exactly. The batch executor applies
    this permutation to its output so the next job's round-robin map
    splits (``index % num_workers``) assign every record to the same
    worker as the scalar path.
    """
    return np.argsort(keys.astype("U"), kind="stable")


@dataclass
class RecordBatch:
    """Struct-of-arrays batch of vertex-keyed MapReduce records.

    One batch row is the record ``(keys[i], (adj_i, *scalars_i))``
    where ``adj_i`` is the slice
    ``keys[adj_targets[adj_offsets[i]:adj_offsets[i+1]]]`` — adjacency
    targets are stored as *positions into the key column*, so message
    routing and state updates never leave integer-index space. On a
    weighted batch ``adj_i`` holds ``(neighbor, weight)`` pairs.

    Attributes
    ----------
    keys:
        int64 key column (vertex identifiers), in record order.
    adj_offsets:
        int64 ``[n+1]`` offsets into :attr:`adj_targets`.
    adj_targets:
        int64 flat adjacency column; values are row positions.
    columns:
        Named scalar value columns, one entry per record. The
        record's serialized value is the tuple ``(adj, *columns)`` in
        mapping order.
    adj_weights:
        float64 weight per adjacency entry (aligned with
        :attr:`adj_targets`), or ``None`` for an unweighted batch.
    """

    keys: np.ndarray
    adj_offsets: np.ndarray
    adj_targets: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    adj_weights: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def degrees(self) -> np.ndarray:
        """Adjacency-list length per record."""
        return np.diff(self.adj_offsets)

    @property
    def total_adjacency(self) -> int:
        """Total adjacency elements across the batch."""
        return int(self.adj_targets.size)

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Mapping[int, Iterable[int]],
        columns: Mapping[str, np.ndarray | Iterable[int]] | None = None,
    ) -> "RecordBatch":
        """Build a batch from a ``{vertex: neighbors}`` mapping.

        Keys must be sortable ascending (they are: the MapReduce
        driver materializes adjacency over ``graph.vertices``, which
        is sorted), because neighbor ids resolve to row positions via
        binary search.
        """
        keys = np.fromiter(adjacency.keys(), dtype=np.int64, count=len(adjacency))
        counts = np.fromiter(
            (len(adj) for adj in adjacency.values()),
            dtype=np.int64,
            count=len(adjacency),
        )
        offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if int(offsets[-1]):
            flat = np.concatenate(
                [np.asarray(adj, dtype=np.int64) for adj in adjacency.values()]
            )
        else:
            flat = np.empty(0, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        positions = order[np.searchsorted(sorted_keys, flat)]
        return cls(
            keys=keys,
            adj_offsets=offsets,
            adj_targets=positions,
            columns={
                name: np.asarray(values, dtype=np.int64)
                for name, values in (columns or {}).items()
            },
        )

    @classmethod
    def from_weighted_graph(cls, graph: Graph) -> "RecordBatch":
        """A weighted batch straight off a graph's CSR, one row per vertex.

        Rows follow ``graph.vertices`` (ascending ids), each adjacency
        follows :meth:`~repro.graph.graph.Graph.neighbors` order and
        carries the arc weights — the records the driver's
        ``weighted_adjacency()`` mapping would give. No state columns
        are set.
        """
        offsets, targets = graph.csr()
        return cls(
            keys=graph.vertices,
            adj_offsets=offsets,
            adj_targets=targets,
            adj_weights=graph.csr_weights(),
        )

    def to_pairs(self) -> list[tuple[int, tuple]]:
        """Materialize the scalar record list ``[(key, (adj, *cols))]``.

        The adjacency is rendered as a tuple of vertex ids, or of
        ``(neighbor, weight)`` pairs on a weighted batch, matching the
        record shape the scalar jobs consume — used by tests and by
        callers that need to hand a batch to a non-batch job.
        """
        keys = self.keys.tolist()
        offsets = self.adj_offsets.tolist()
        arcs = self.keys[self.adj_targets].tolist()
        if self.adj_weights is not None:
            arcs = list(zip(arcs, self.adj_weights.tolist()))
        column_lists = [column.tolist() for column in self.columns.values()]
        return [
            (
                keys[i],
                (tuple(arcs[offsets[i]: offsets[i + 1]]),)
                + tuple(column[i] for column in column_lists),
            )
            for i in range(len(keys))
        ]

    def gather_messages(
        self, emitters: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Broadcast one scalar per emitting record to all its neighbors.

        Returns ``(targets, payloads)`` where ``targets`` are row
        positions (with multiplicity, grouped by emitting record in
        record order) and ``payloads`` repeats each emitter's value
        once per neighbor — the columnar form of the scalar jobs'
        ``for neighbor in adj: yield neighbor, (tag, value)`` loop. A
        weighted batch adds each arc's weight to its payload, as the
        SSSP job's ``dist + weight`` offer does.
        """
        rows = np.nonzero(emitters)[0]
        positions, counts = csr_gather(self.adj_offsets, rows)
        payloads = np.repeat(values[rows], counts)
        if self.adj_weights is not None:
            payloads += self.adj_weights[positions]
        return self.adj_targets[positions], payloads

    def reorder(self, permutation: np.ndarray) -> "RecordBatch":
        """A new batch with rows permuted (adjacency positions remapped).

        Returns ``self`` when the permutation is the identity — after
        the first job every batch is already in repr-sorted key order,
        so the steady-state iteration pays no reordering cost.
        """
        n = len(self.keys)
        if np.array_equal(permutation, np.arange(n, dtype=permutation.dtype)):
            return self
        inverse = np.empty(n, dtype=np.int64)
        inverse[permutation] = np.arange(n, dtype=np.int64)
        positions, counts = csr_gather(self.adj_offsets, permutation)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return RecordBatch(
            keys=self.keys[permutation],
            adj_offsets=offsets,
            adj_targets=inverse[self.adj_targets[positions]],
            columns={
                name: column[permutation]
                for name, column in self.columns.items()
            },
            adj_weights=(
                None if self.adj_weights is None else self.adj_weights[positions]
            ),
        )


def combine_min_messages(
    num_rows: int, targets: np.ndarray, payloads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row minimum over delivered messages (a sorted group-reduce).

    Returns ``(min_message, has_message)`` arrays over all rows; rows
    with no message keep an undefined minimum and a ``False`` flag.
    This is the columnar combiner for the min-semantics jobs — the
    same reduction the scalar combine (``min(candidates)``) and reduce
    (``min`` over surviving candidates) apply, fused into one pass.
    """
    minimum = np.zeros(num_rows, dtype=payloads.dtype)
    has_message = np.zeros(num_rows, dtype=bool)
    rows, minima = group_reduce(np.minimum, targets, payloads)
    minimum[rows] = minima
    has_message[rows] = True
    return minimum, has_message


# -- vectorized CRC32 ----------------------------------------------------

def _crc32_table() -> np.ndarray:
    """The standard reflected CRC-32 (IEEE 802.3) lookup table."""
    table = np.zeros(256, dtype=np.uint32)
    for index in range(256):
        crc = np.uint32(index)
        for _bit in range(8):
            if crc & np.uint32(1):
                crc = np.uint32(0xEDB88320) ^ (crc >> np.uint32(1))
            else:
                crc = crc >> np.uint32(1)
        table[index] = crc
    return table


_CRC32_TABLE = _crc32_table()


def crc32_rows(data: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """CRC32 of each row of a padded uint8 matrix, vectorized.

    ``data`` is ``[n, width]`` with each row's payload in its first
    ``lengths[i]`` bytes; padding bytes are ignored. Matches
    ``zlib.crc32`` on every row (tested in
    ``tests/platforms/test_mapreduce_batch.py``). The loop is over the
    *width* (key length, a handful of bytes), not the row count, so a
    million keys cost ``width`` table gathers.
    """
    crc = np.full(len(data), 0xFFFFFFFF, dtype=np.uint32)
    for column in range(data.shape[1]):
        active = lengths > column
        if not active.any():
            break
        byte = data[active, column].astype(np.uint32)
        current = crc[active]
        crc[active] = _CRC32_TABLE[(current ^ byte) & np.uint32(0xFF)] ^ (
            current >> np.uint32(8)
        )
    return crc ^ np.uint32(0xFFFFFFFF)


def str_key_workers(keys: list, num_workers: int) -> np.ndarray | None:
    """Vectorized reduce-worker assignment for plain-ASCII str keys.

    Reproduces ``zlib.crc32(repr(key).encode()) % num_workers`` for
    every key in one encoded-array pass: for a printable-ASCII string
    without quotes or backslashes, ``repr`` is exactly
    ``"'" + key + "'"``, so the whole batch encodes into one padded
    byte matrix and hashes through :func:`crc32_rows`. Returns
    ``None`` when any key needs Python's general ``repr`` (non-str,
    non-ASCII, embedded quote/backslash/control characters) — the
    caller falls back to the scalar partitioner.
    """
    if not keys or not all(type(key) is str for key in keys):
        return None
    unicode_keys = np.asarray(keys, dtype="U")
    try:
        encoded = unicode_keys.astype("S")
    except UnicodeEncodeError:
        return None
    width = encoded.dtype.itemsize
    if width == 0:
        # All keys empty: repr is '' for each.
        matrix = np.zeros((len(keys), 0), dtype=np.uint8)
        lengths = np.zeros(len(keys), dtype=np.int64)
    else:
        matrix = encoded.view(np.uint8).reshape(len(keys), width)
        lengths = np.char.str_len(unicode_keys).astype(np.int64)
        payload = (matrix >= 0x20) & (matrix <= 0x7E)
        clean = payload | (matrix == 0)
        quoteless = (matrix != 0x27) & (matrix != 0x5C)
        # Interior NULs would alias with padding; the length check
        # rejects them along with any non-printable byte.
        if not (
            bool((clean & quoteless).all())
            and bool((payload.sum(axis=1) == lengths).all())
        ):
            return None
    quoted = np.zeros((len(keys), matrix.shape[1] + 2), dtype=np.uint8)
    quoted[:, 0] = 0x27
    if matrix.shape[1]:
        quoted[:, 1:-1] = matrix
    np.put_along_axis(
        quoted, (lengths + 1)[:, None], np.uint8(0x27), axis=1
    )
    hashes = crc32_rows(quoted, lengths + 2)
    return (hashes.astype(np.int64)) % num_workers
