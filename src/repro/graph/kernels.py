"""Array kernels shared by the vectorized (bulk) engine paths.

Option-free numpy primitives over CSR arrays and grouped keys: the
CSR range gather, a sorted group-reduce, an order-preserving float
group-sum, and the multiplicative vertex-placement hash. None of them
touches a :class:`~repro.core.cost.CostMeter`; the engines decide
what each array means, what to charge and to which worker, and
charge per-worker tallies through
:meth:`~repro.core.cost.CostMeter.charge_worker_compute` and
:meth:`~repro.core.cost.CostMeter.charge_worker_messages`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "csr_gather",
    "group_reduce",
    "ordered_group_sum",
    "hash_worker",
    "hash_workers",
]

#: Knuth's multiplicative-hash constant (2^32 / golden ratio).
_KNUTH = 2654435761


def hash_worker(vertex: int, num_workers: int) -> int:
    """Worker owning the Python int ``vertex`` under hash placement."""
    return ((vertex * _KNUTH) & 0xFFFFFFFF) % num_workers


def hash_workers(vertices: np.ndarray, num_workers: int) -> np.ndarray:
    """:func:`hash_worker` element-wise over an integer id array.

    uint64 multiplication wraps modulo 2**64, which keeps the low 32
    bits of each product, and those are all the mask keeps.
    """
    hashed = np.asarray(vertices, dtype=np.int64).astype(np.uint64)
    hashed *= np.uint64(_KNUTH)
    hashed &= np.uint64(0xFFFFFFFF)
    return (hashed % np.uint64(num_workers)).astype(np.int64)


def csr_gather(
    offsets: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the CSR slices of ``rows``, row after row.

    Returns ``(positions, counts)``: ``positions`` walks
    ``offsets[r]:offsets[r + 1]`` for each row ``r`` in the given
    order (rows may repeat), and ``counts`` holds each row's slice
    length, so ``np.repeat(per_row, counts)`` aligns per-row data with
    ``positions``.
    """
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    bounds = np.cumsum(counts)
    positions = np.arange(bounds[-1] if len(bounds) else 0, dtype=np.int64)
    positions += np.repeat(starts - (bounds - counts), counts)
    return positions, counts


def group_reduce(
    ufunc: np.ufunc, keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce ``values`` per distinct key with ``ufunc.reduceat``.

    Returns the sorted distinct keys and one reduction per key. The
    stable sort keeps each key's values in input order; ``reduceat``
    may still associate them pairwise, so use it for order-free
    reductions (integer ``min``) and :func:`ordered_group_sum` for
    float sums that must match a sequential fold.
    """
    if len(keys) == 0:
        return keys[:0], values[:0]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    run_start = np.ones(len(sorted_keys), dtype=bool)
    run_start[1:] = sorted_keys[1:] != sorted_keys[:-1]
    first = np.flatnonzero(run_start)
    return sorted_keys[first], ufunc.reduceat(values[order], first)


def ordered_group_sum(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float sum of ``values`` per distinct key, added in input order.

    ``np.add.at`` applies its additions one at a time in index order,
    so each sum is the left fold ``0.0 + v0 + v1 + ...`` of its key's
    values in input order, which is what a scalar loop accumulating
    into a dict computes. Returns the sorted distinct keys, the index
    of each key's first occurrence, and the sums.
    """
    unique_keys, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    sums = np.zeros(len(unique_keys), dtype=np.float64)
    np.add.at(sums, inverse, values)
    return unique_keys, first, sums
