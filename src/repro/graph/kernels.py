"""Array kernels shared by the vectorized (bulk) engine paths.

Option-free numpy primitives over CSR arrays and grouped keys: the
dense index of a vertex id, the CSR range gather, a sorted
group-reduce, a key grouping and the order-preserving float group-sum
over it, the multiplicative vertex-placement hash, the traversals the
database engines run whole (BFS levels, minimum component labels and
damped PageRank rounds), and the per-vertex triangle count behind the
STATS and LCC references. None
of them touches a :class:`~repro.core.cost.CostMeter`; the engines
decide what each array means, what to charge and to which worker, and
charge per-worker tallies through
:meth:`~repro.core.cost.CostMeter.charge_worker_compute` and
:meth:`~repro.core.cost.CostMeter.charge_worker_messages`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "KeyGroups",
    "dense_index",
    "csr_gather",
    "csr_bfs_levels",
    "csr_min_labels",
    "csr_pagerank",
    "group_keys",
    "group_reduce",
    "ordered_group_sum",
    "hash_worker",
    "hash_workers",
    "triangle_links",
]

#: Knuth's multiplicative-hash constant (2^32 / golden ratio).
_KNUTH = 2654435761

#: Wedges :func:`triangle_links` probes at once; bounds its per-block
#: temporaries to a few MB however many wedges the graph has.
_WEDGE_BLOCK = 1 << 16


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


def dense_index(vertex_ids: np.ndarray, vertex: int) -> int | None:
    """Position of ``vertex`` in the sorted id array, ``None`` if absent."""
    position = int(np.searchsorted(vertex_ids, vertex))
    if position < len(vertex_ids) and vertex_ids[position] == vertex:
        return position
    return None


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


class KeyGroups(NamedTuple):
    """The distinct values of a key array and where each element falls."""

    #: The sorted distinct keys.
    keys: np.ndarray
    #: Index of each distinct key's first occurrence in the input.
    first: np.ndarray
    #: Position in :attr:`keys` of every input element.
    inverse: np.ndarray


def group_keys(keys: np.ndarray) -> KeyGroups:
    """Group ``keys`` once, for any number of :func:`ordered_group_sum`
    calls over values aligned with them."""
    return KeyGroups(*np.unique(keys, return_index=True, return_inverse=True))


def ordered_group_sum(groups: KeyGroups, values: np.ndarray) -> np.ndarray:
    """Float sum of ``values`` per key of ``groups``, added in input order.

    ``np.add.at`` applies its additions one at a time in index order,
    so each sum is the left fold ``0.0 + v0 + v1 + ...`` of its key's
    values in input order, which is what a scalar loop accumulating
    into a dict computes. Entry ``i`` belongs to ``groups.keys[i]``.
    """
    sums = np.zeros(len(groups.keys), dtype=np.float64)
    np.add.at(sums, groups.inverse, values)
    return sums


def csr_bfs_levels(
    offsets: np.ndarray, targets: np.ndarray, source: int
) -> np.ndarray:
    """Hop distance of every row from row ``source``, ``-1`` if unreached
    (the ``UNREACHABLE`` marker of the BFS output convention).

    Expands one frontier of rows per level; the level of a row is the
    same whichever order a level's rows are expanded in.
    """
    levels = np.full(len(offsets) - 1, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while len(frontier):
        depth += 1
        positions, _ = csr_gather(offsets, frontier)
        reached = targets[positions]
        frontier = np.unique(reached[levels[reached] < 0])
        levels[frontier] = depth
    return levels


def csr_min_labels(offsets: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Smallest row index in each row's component of a symmetric CSR.

    A min-label fixpoint: every row takes the least label among its
    own and its neighbors', then labels jump to their label's label
    until they stop moving. Labels only fall and always name a row of
    the same component, so at the fixpoint every component carries
    the label of its least row.
    """
    n = len(offsets) - 1
    labels = np.arange(n, dtype=np.int64)
    linked = np.flatnonzero(np.diff(offsets))
    while len(linked):
        hooked = labels.copy()
        hooked[linked] = np.minimum(
            labels[linked],
            np.minimum.reduceat(labels[targets], offsets[linked]),
        )
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, labels):
            break
        labels = hooked
    return labels


def csr_pagerank(
    offsets: np.ndarray, targets: np.ndarray, damping: float, iterations: int
) -> np.ndarray:
    """``iterations`` damped PageRank rounds over a symmetric CSR.

    Each row sends ``rank / degree`` to every entry of its row, and a
    row's new rank is ``base + damping * total``, ``total`` being the
    left fold ``0.0 + s0 + s1 + ...`` of its neighbors' shares in row
    order, so the ranks equal the scalar per-vertex loop's bit for bit.
    """
    n = len(offsets) - 1
    if n == 0:
        return np.zeros(0)
    degrees = np.diff(offsets)
    rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
    base = (1.0 - damping) / n
    ranks = np.full(n, 1.0 / n)
    divisors = np.maximum(degrees, 1)
    for _iteration in range(iterations):
        shares = ranks / divisors
        ranks = base + damping * np.bincount(
            rows, weights=shares[targets], minlength=n
        )
    return ranks


def triangle_links(offsets: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Edges among each vertex's neighbors on a symmetric, sorted CSR.

    Entry ``i`` counts the edges ``{u, w}`` whose endpoints are both
    neighbors of row ``i``, i.e. the triangles through ``i``. Each
    edge is oriented toward its higher-(degree, id) endpoint; every
    wedge of two out-arcs of one vertex is probed against the sorted
    arc keys with ``np.searchsorted``, which finds each triangle
    exactly once, from its lowest corner, and the triangle is counted
    onto all three corners. Wedges are probed ``_WEDGE_BLOCK`` at a
    time, so memory grows with the edge count, not the wedge count.
    Self-loops are ignored.
    """
    n = len(offsets) - 1
    degrees = np.diff(offsets)
    # rank[v] is v's position in (degree, id) order; arcs and wedges
    # live in rank space until the counts are mapped back.
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(degrees, kind="stable")] = np.arange(n)
    sources = rank[np.repeat(np.arange(n), degrees)]
    dests = rank[targets]
    upward = sources < dests
    keys = np.sort(sources[upward] * n + dests[upward])
    heads, tails = np.divmod(keys, n)
    # An arc's wedges pair it with each later arc of the same head.
    row_ends = np.cumsum(np.bincount(heads, minlength=n))[heads]
    per_arc = row_ends - np.arange(len(keys)) - 1
    through = np.cumsum(per_arc)
    links = np.zeros(n, dtype=np.int64)
    start = 0
    while start < len(keys):
        limit = through[start] - per_arc[start] + _WEDGE_BLOCK
        stop = max(int(np.searchsorted(through, limit, side="right")), start + 1)
        counts = per_arc[start:stop]
        bounds = np.cumsum(counts)
        firsts = np.repeat(np.arange(start, stop), counts)
        seconds = np.arange(bounds[-1]) + np.repeat(
            np.arange(start + 1, stop + 1) - (bounds - counts), counts
        )
        probes = tails[firsts] * n + tails[seconds]
        hits = np.searchsorted(keys, probes)
        closed = keys[np.minimum(hits, len(keys) - 1)] == probes
        corners = np.concatenate(
            [heads[firsts[closed]], tails[firsts[closed]], tails[seconds[closed]]]
        )
        links += np.bincount(corners, minlength=n)
        start = stop
    return links[rank]
