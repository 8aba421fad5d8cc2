"""Vectorized (bulk) execution of the GraphX algorithms.

The scalar path runs BFS, CONN, PR, SSSP and STATS through the real
RDD substrate: one Python closure call and one dict operation per
record per stage. For BFS, CONN, PR and SSSP every stage's *records*
are fixed-shape pairs, so the whole Pregel loop collapses into numpy
array operations (the :mod:`repro.graph.kernels` group-reduce and
ordered group-sum) — while the :class:`~repro.core.cost.CostMeter`
event sequence is replayed verbatim from per-worker record counts
through :meth:`~repro.core.cost.CostMeter.charge_worker_compute`.
STATS ships adjacency lists, whose records are collection-sized; its
pass (:meth:`BulkPregelRunner.run_stats`) sizes them from per-worker
degree sums instead. This module keeps only the GraphX charge policy and its
per-worker RDD memory, including the 48-byte vertex and edge records
of the loaded graph, which the bulk paths charge from counts instead
of building them (:meth:`BulkPregelRunner.graph_rdds`).
A weighted kernel (SSSP) has the runner add each arc's weight from
:meth:`~repro.graph.graph.Graph.csr_weights` to the distance its
sender offers, the ``distance + w(src, dst)`` of the scalar ``send``.

The contract, verified by ``tests/test_bulk_equivalence.py``: a bulk
run produces *bit-identical* outputs and cost profiles to the scalar
path. That works because every scalar charge is a per-record constant:

* each stage charges ``records * RECORD_CPU_OPS`` per worker and
  materializes ``records * bytes-per-record`` of cached memory, where
  the per-record footprint depends only on the record *shape*, not on
  whether the scalars in it are ints or floats (``(id, value)`` pairs:
  48 bytes; ``(id, (value, flag))`` vertex values: 80; join triplets:
  112) — so count × constant reproduces the scalar float accumulation
  exactly (integer-valued float64 sums below 2**53);
* the ``reduceByKey`` shuffle moves the map-side-combined ``(dst,
  source-partition)`` pairs whose key does not hash home, 24 wire
  bytes each;
* vertex-side join inputs lost their partitioner to ``map`` but stay
  physically hash-aligned, so their re-shuffle charges zero bytes —
  the bulk path makes the same (empty) ``charge_shuffle`` call;
* stage names consume the context's shared stage counter in the same
  order, and every materialize/unpersist allocates/releases the same
  per-worker byte totals at the same point in the sequence.

The runner is engaged by :class:`~repro.platforms.rddgraph.driver.
GraphXPlatform` when built with ``bulk=True`` (the default);
``bulk=False`` forces the scalar RDD path.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.algorithms.bfs import UNREACHABLE
from repro.algorithms.sssp import UNREACHABLE_DISTANCE
from repro.algorithms.stats import GraphStats
from repro.core.workload import sssp_round_bound
from repro.graph.graph import Graph
from repro.graph.kernels import (
    dense_index,
    group_reduce,
    hash_workers,
    ordered_group_sum,
)
from repro.graph.properties import csr_received_links, lcc_values
from repro.platforms.rddgraph.rdd import (
    ELEMENT_MEMORY_BYTES,
    RECORD_CPU_OPS,
    SHUFFLE_ELEMENT_BYTES,
    RDDContext,
    _key_partition,
)

__all__ = [
    "RDDBulkKernel",
    "RDDBFSBulkKernel",
    "RDDConnBulkKernel",
    "RDDPageRankBulkKernel",
    "RDDSSSPBulkKernel",
    "BulkPregelRunner",
    "graphx_bfs_bulk",
    "graphx_conn_bulk",
    "graphx_pagerank_bulk",
    "graphx_sssp_bulk",
    "graphx_stats_bulk",
]

#: Cached bytes of one ``(id, value)`` record (``RECORD_MEMORY_BYTES``).
_PAIR_BYTES = 48.0
#: Cached bytes of one ``(id, (value, flag))`` vertex record.
_VERTEX_BYTES = 80.0
#: Cached bytes of one join output ``(id, (other, (value, flag)))``.
_JOINED_BYTES = 112.0
#: Wire bytes of one shuffled ``(id, value)`` record.
_PAIR_WIRE_BYTES = 24.0
#: Wire bytes of one collected ``(id, (value, flag))`` record.
_VERTEX_WIRE_BYTES = 40.0


class RDDBulkKernel(abc.ABC):
    """Vectorized counterpart of one GraphX Pregel algorithm.

    Kernels hold the dense per-vertex ``values`` and ``changed``
    arrays the scalar algorithms encode in their vertex-value tuples;
    the runner owns all cost accounting.
    """

    #: Receiver-side merge of messages per target (min semantics).
    reduce = np.minimum
    #: Whether the runner adds each arc's weight to the message sent
    #: along it (the graph must be weighted).
    weighted = False

    @abc.abstractmethod
    def initial(self, vertex_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(values, changed)`` arrays before the first iteration."""

    @abc.abstractmethod
    def send_mask(
        self, values: np.ndarray, changed: np.ndarray
    ) -> np.ndarray:
        """Which vertices emit a message along every out-arc."""

    @abc.abstractmethod
    def message_values(self, sender_values: np.ndarray) -> np.ndarray:
        """The message payload per sending arc, from the arc's source."""

    @abc.abstractmethod
    def absorb(
        self,
        values: np.ndarray,
        changed: np.ndarray,
        targets: np.ndarray,
        incoming: np.ndarray,
    ) -> None:
        """The vertex program: fold merged messages into the state.

        Mutates ``values``/``changed`` in place; vertices without
        messages always end the iteration unchanged (scalar ``vprog``
        returns ``changed=False`` for them).
        """

    def arc_messages(self, values: np.ndarray, senders: np.ndarray) -> np.ndarray:
        """Payload per sending arc; ``senders`` are dense source indices.

        Kernels whose payload depends on more than the sender's value
        (PageRank divides by the sender's degree) override this.
        """
        return self.message_values(values[senders])

    def merge_messages(
        self,
        payloads: np.ndarray,
        message_targets: np.ndarray,
        message_workers: np.ndarray,
        num_workers: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold message payloads per target; returns ``(targets, incoming)``.

        The default replays an order-independent ``reduce`` (min
        semantics); kernels with non-associative float merges override
        it to reproduce the scalar ``reduce_by_key`` fold order.
        """
        return group_reduce(self.reduce, message_targets, payloads)


class RDDBFSBulkKernel(RDDBulkKernel):
    """Vectorized GraphX BFS (value = ``(distance, changed)``).

    Mirrors :func:`~repro.platforms.rddgraph.algorithms.graphx_bfs`:
    the source starts changed at distance 0; changed, reached vertices
    offer ``distance + 1`` along every arc; unreached targets adopt
    the minimum offer.
    """

    def __init__(self, source: int):
        self.source = source

    def initial(self, vertex_ids):
        """Source at distance 0 and changed; everyone else unreached."""
        values = np.full(len(vertex_ids), UNREACHABLE, dtype=np.int64)
        changed = np.zeros(len(vertex_ids), dtype=bool)
        position = dense_index(vertex_ids, self.source)
        if position is not None:
            values[position] = 0
            changed[position] = True
        return values, changed

    def send_mask(self, values, changed):
        """Changed *and* reached vertices broadcast their distance."""
        return changed & (values != UNREACHABLE)

    def message_values(self, sender_values):
        """A reached sender offers ``its distance + 1``."""
        return sender_values + 1

    def absorb(self, values, changed, targets, incoming):
        """Unreached targets adopt the merged (minimum) distance."""
        changed[:] = False
        fresh = values[targets] == UNREACHABLE
        newly = targets[fresh]
        values[newly] = incoming[fresh]
        changed[newly] = True


class RDDConnBulkKernel(RDDBulkKernel):
    """Vectorized GraphX connected components (HashMin).

    Mirrors :meth:`GraphXGraph.connected_components`: everyone starts
    changed in its own component; changed vertices broadcast their
    label; a strictly smaller merged label is adopted.
    """

    def initial(self, vertex_ids):
        """Every vertex starts changed, labeled with its own id."""
        return (
            vertex_ids.astype(np.int64, copy=True),
            np.ones(len(vertex_ids), dtype=bool),
        )

    def send_mask(self, values, changed):
        """Vertices whose label shrank last iteration broadcast it."""
        return changed

    def message_values(self, sender_values):
        """The sender offers its current component label."""
        return sender_values

    def absorb(self, values, changed, targets, incoming):
        """Adopt a strictly smaller merged label."""
        changed[:] = False
        adopt = incoming < values[targets]
        newly = targets[adopt]
        values[newly] = incoming[adopt]
        changed[newly] = True


class RDDSSSPBulkKernel(RDDConnBulkKernel):
    """Vectorized GraphX SSSP (value = ``(distance, changed)``).

    Mirrors :func:`~repro.platforms.rddgraph.algorithms.graphx_sssp`:
    the source starts changed at distance 0; changed vertices offer
    their distance, to which the runner adds the arc weight; a
    strictly smaller merged offer is adopted.
    """

    weighted = True

    def __init__(self, source: int):
        self.source = source

    def initial(self, vertex_ids):
        """Source at 0.0 and changed; everyone else unreached."""
        values = np.full(len(vertex_ids), UNREACHABLE_DISTANCE)
        changed = np.zeros(len(vertex_ids), dtype=bool)
        position = dense_index(vertex_ids, self.source)
        if position is not None:
            values[position] = 0.0
            changed[position] = True
        return values, changed


class RDDPageRankBulkKernel(RDDBulkKernel):
    """Vectorized GraphX PageRank (value = ``(rank, iteration)``).

    Mirrors :func:`~repro.platforms.rddgraph.algorithms.
    graphx_pagerank` bit for bit. The scalar ``reduce_by_key`` folds
    float contributions in two stages — a map-side combine per source
    partition in arc-record order, then a final per-target fold over
    the combined partials in source-worker-ascending order — and
    :meth:`merge_messages` replays exactly that association order with
    sequential ``np.add.at`` accumulation (``reduceat`` pairwise sums
    would not match).
    """

    def __init__(self, degrees: np.ndarray, damping: float, iterations: int):
        #: Out-degree per dense vertex index, as float64.
        self.degrees = degrees
        self.damping = damping
        self.iterations = iterations
        #: Lockstep iteration counter — every vertex passes through
        #: ``vprog`` each round, so one scalar stands in for the
        #: per-vertex counters the scalar value tuples carry.
        self.iteration = 0
        self.base = 0.0

    def initial(self, vertex_ids):
        """Everyone starts at ``1/n``; iteration counters at zero."""
        n = len(vertex_ids)
        self.base = (1.0 - self.damping) / n if n else 0.0
        values = np.full(n, 1.0 / n if n else 0.0, dtype=np.float64)
        return values, np.zeros(n, dtype=bool)

    def send_mask(self, values, changed):
        """All vertices send until the iteration budget is spent."""
        if self.iteration < self.iterations:
            return np.ones(len(values), dtype=bool)
        return np.zeros(len(values), dtype=bool)

    def message_values(self, sender_values):
        """Unused — :meth:`arc_messages` needs the sender's degree."""
        return sender_values

    def arc_messages(self, values, senders):
        """Each arc carries its source's ``rank / degree`` share."""
        return values[senders] / self.degrees[senders]

    def merge_messages(self, payloads, message_targets, message_workers, num_workers):
        """Two-level sequential float fold matching ``reduce_by_key``."""
        # Level 1 — map-side combine: one partial per (target, source
        # worker), accumulated in arc-stream order, which within any
        # one worker's slots is exactly that partition's record order.
        pair_keys, _, pair_partials = ordered_group_sum(
            message_targets * num_workers + message_workers, payloads
        )
        # Level 2 — reducer fold: pair_keys sort as (target, worker),
        # so folding in slot order adds each target's partials in
        # source-worker-ascending order, as ``_shuffle_pairs`` does.
        targets, _, incoming = ordered_group_sum(
            pair_keys // num_workers, pair_partials
        )
        return targets, incoming

    def absorb(self, values, changed, targets, incoming):
        """Damped update for message targets, bare base for the rest."""
        values[:] = self.base
        values[targets] = self.base + self.damping * incoming
        self.iteration += 1


class BulkPregelRunner:
    """Replays the scalar RDD stages' cost events, vectorized.

    Built from the :class:`RDDContext` (for the shared meter and
    stage counter) and the underlying :class:`Graph` (for the CSR
    arrays the scalar path re-derives record by record). :meth:`run`
    replays the Pregel loop of a kernel; :meth:`run_stats` replays
    the STATS neighbor-list pass and needs no kernel.
    """

    def __init__(
        self,
        context: RDDContext,
        graph: Graph,
        kernel: RDDBulkKernel | None = None,
    ):
        self.context = context
        self.meter = context.meter
        self.kernel = kernel
        undirected = graph.to_undirected()
        self.ids = undirected.vertices
        self.num_workers = self.context.spec.num_workers
        #: ``_key_partition`` of every vertex id, vectorized.
        self.vertex_workers = hash_workers(self.ids, self.num_workers)
        self.offsets, self.arc_target = undirected.csr()
        self.degrees = np.diff(self.offsets)
        self.arc_source = np.repeat(
            np.arange(len(self.ids), dtype=np.int64), self.degrees
        )
        #: Per-arc weights for a weighted kernel, else ``None``.
        self.arc_weights = (
            undirected.csr_weights()
            if kernel is not None and kernel.weighted
            else None
        )
        self.arc_workers = self.vertex_workers[self.arc_source]
        self.vertices_per_worker = np.bincount(
            self.vertex_workers, minlength=self.num_workers
        )
        self.arcs_per_worker = np.bincount(
            self.arc_workers, minlength=self.num_workers
        )

    @contextmanager
    def graph_rdds(self) -> Iterator[None]:
        """Hold the loaded graph's vertex and edge RDDs around a run.

        The scalar driver caches one 48-byte ``(id, value)`` record
        per vertex and one ``(src, dst)`` record per arc, both placed
        by the source's hash, and unpersists them when the run ends,
        even on failure. The bulk paths never read those records, so
        they allocate and release the same bytes from counts.
        """
        self._allocate(_PAIR_BYTES * self.vertices_per_worker)
        self._allocate(_PAIR_BYTES * self.arcs_per_worker)
        try:
            yield
        finally:
            self._release(_PAIR_BYTES * self.vertices_per_worker)
            self._release(_PAIR_BYTES * self.arcs_per_worker)

    # -- the loop -----------------------------------------------------

    def run(self, max_iterations: int) -> tuple[np.ndarray, str]:
        """Execute the Pregel loop; returns final values and RDD name."""
        kernel, meter = self.kernel, self.meter
        values, changed = kernel.initial(self.ids)
        arcs, vertices = self.arcs_per_worker, self.vertices_per_worker
        total_vertices = int(vertices.sum())

        self._narrow_stage("mapVertices", vertices, vertices, total_vertices)
        self._allocate(_VERTEX_BYTES * vertices)
        name = "mapVertices"
        has_previous = False
        for _iteration in range(max_iterations):
            # triplets = edges ⋈ vertices: a full edge-RDD scan.
            self._begin_stage("triplets")
            meter.charge_shuffle(0.0, count=0)  # vertex side, all local
            meter.charge_worker_compute(
                RECORD_CPU_OPS * (2 * arcs + vertices), random_accesses=arcs
            )
            meter.end_round(active_vertices=int(arcs.sum()))
            self._allocate(_JOINED_BYTES * arcs)
            # sendMsg: one flat_map over every triplet.
            sending = kernel.send_mask(values, changed)
            arc_mask = sending[self.arc_source]
            message_targets = self.arc_target[arc_mask]
            message_workers = self.arc_workers[arc_mask]
            messages = np.bincount(message_workers, minlength=self.num_workers)
            self._narrow_stage(
                "sendMsg", arcs, messages, int(messages.sum())
            )
            self._allocate(_PAIR_BYTES * messages)
            # mergeMsg: map-side combine, shuffle home, final reduce.
            payloads = kernel.arc_messages(values, self.arc_source[arc_mask])
            if self.arc_weights is not None:
                payloads = payloads + self.arc_weights[arc_mask]
            self._begin_stage("mergeMsg")
            meter.charge_worker_compute(RECORD_CPU_OPS * messages)
            pair_keys = np.unique(
                message_targets * self.num_workers + message_workers
            )
            pair_target = pair_keys // self.num_workers
            pair_worker = pair_keys % self.num_workers
            remote = int(
                np.count_nonzero(
                    pair_worker != self.vertex_workers[pair_target]
                )
            )
            meter.charge_shuffle(remote * _PAIR_WIRE_BYTES, count=remote)
            received = np.bincount(
                self.vertex_workers[pair_target], minlength=self.num_workers
            )
            meter.charge_worker_compute(RECORD_CPU_OPS * received)
            targets, incoming = kernel.merge_messages(
                payloads, message_targets, message_workers, self.num_workers
            )
            merged = np.bincount(
                self.vertex_workers[targets], minlength=self.num_workers
            )
            meter.end_round(active_vertices=len(targets))
            self._allocate(_PAIR_BYTES * merged)
            self._release(_JOINED_BYTES * arcs)  # triplets.unpersist()
            self._release(_PAIR_BYTES * messages)  # messages.unpersist()
            if len(targets) == 0:
                self._release(_PAIR_BYTES * merged)  # merged.unpersist()
                break
            # vprog: left-outer-join the merged messages, map the program.
            self._begin_stage("vprog-join")
            meter.charge_shuffle(0.0, count=0)  # vertex side, all local
            meter.charge_worker_compute(
                RECORD_CPU_OPS * (2 * vertices + merged),
                random_accesses=vertices,
            )
            meter.end_round(active_vertices=total_vertices)
            self._allocate(_JOINED_BYTES * vertices)
            self._narrow_stage("vprog", vertices, vertices, total_vertices)
            self._allocate(_VERTEX_BYTES * vertices)
            self._release(_JOINED_BYTES * vertices)  # joined.unpersist()
            self._release(_PAIR_BYTES * merged)  # merged.unpersist()
            if has_previous:  # lineage: previous generation released now
                self._release(_VERTEX_BYTES * vertices)
            has_previous = True
            name = "vprog"
            kernel.absorb(values, changed, targets, incoming)
        if has_previous:
            self._release(_VERTEX_BYTES * vertices)
        return values, name

    def collect(self, name: str, record_wire_bytes: float) -> None:
        """Replay :meth:`RDD.collect`'s charges for the final RDD."""
        meter = self.meter
        meter.begin_round(f"collect-{name}")
        meter.charge_worker_compute(RECORD_CPU_OPS * self.vertices_per_worker)
        total = int(self.vertices_per_worker.sum())
        meter.charge_shuffle(total * record_wire_bytes, count=total)
        meter.end_round(active_vertices=total)

    def map_values_stage(self, name: str) -> None:
        """Replay one narrow ``map_values`` stage over the vertex RDD."""
        vertices = self.vertices_per_worker
        self._narrow_stage(name, vertices, vertices, int(vertices.sum()))
        self._allocate(_PAIR_BYTES * vertices)

    def run_stats(self) -> GraphStats:
        """The STATS neighbor-list pass, from per-worker counts and degree sums.

        Replays the stages of the scalar
        :func:`~repro.platforms.rddgraph.algorithms.graphx_stats`.
        A collection-valued record caches ``ELEMENT_MEMORY_BYTES`` per
        element, one nesting level deep, and puts half that on the wire:

        * ``mapVertices`` gives each vertex its adjacency: 48 + 16·deg;
        * ``triplets`` joins each arc with its source's adjacency:
          80 + 16·deg(src);
        * ``sendMsg`` ships the adjacency of every source of degree at
          least 2 along each arc as a one-list record: 64 + 16·deg(src);
        * ``mergeMsg`` combines the lists per ``(target, source worker)``
          map-side, shuffles the combined records that do not hash home,
          and concatenates them per target: 48 + 16·(lists + elements);
        * ``cc-join`` pairs each vertex's adjacency with its received
          lists: 80 + 16·(deg + lists);
        * ``local-cc`` and ``cc-sum`` fold the coefficients, ascending id
          within each worker and then worker-ascending, the order the
          scalar ``reduce_by_key`` adds in.

        As in the scalar run, the ``local-cc`` and ``cc-sum`` RDDs stay
        cached until the run's meter is discarded.
        """
        meter, num_workers = self.meter, self.num_workers
        vertices, arcs = self.vertices_per_worker, self.arcs_per_worker
        vertex_workers = self.vertex_workers
        n = len(self.ids)

        def per_worker(workers: np.ndarray, weights=None) -> np.ndarray:
            return np.bincount(workers, weights=weights, minlength=num_workers)

        source_degrees = self.degrees[self.arc_source].astype(np.float64)
        shipped = source_degrees >= 2
        list_workers = self.arc_workers[shipped]
        list_elements = source_degrees[shipped]
        list_targets = self.arc_target[shipped]
        received = np.bincount(list_targets, minlength=n)
        received_elements = np.bincount(
            list_targets, weights=list_elements, minlength=n
        )
        targets = np.flatnonzero(received)
        pair_keys, pair_of_list, pair_lists = np.unique(
            list_targets * num_workers + list_workers,
            return_inverse=True,
            return_counts=True,
        )
        pair_elements = np.bincount(
            pair_of_list, weights=list_elements, minlength=len(pair_keys)
        )
        pair_home = vertex_workers[pair_keys // num_workers]
        remote = pair_home != pair_keys % num_workers
        remote_wire_bytes = float(
            (
                _PAIR_WIRE_BYTES
                + SHUFFLE_ELEMENT_BYTES * (pair_lists + pair_elements)
            )[remote].sum()
        )
        messages = per_worker(list_workers)
        merged = per_worker(vertex_workers[targets])
        cc_home = _key_partition("cc", num_workers)
        partials = int(np.count_nonzero(vertices))  # one ("cc", partial) each
        shuffled_partials = partials - int(vertices[cc_home] > 0)
        reduced = np.zeros(num_workers)
        reduced[cc_home] = partials
        sums = np.minimum(reduced, 1)  # the one ("cc", sum) record

        adjacency_bytes = _PAIR_BYTES * vertices + ELEMENT_MEMORY_BYTES * arcs
        triplet_bytes = per_worker(
            self.arc_workers,
            _PAIR_BYTES + ELEMENT_MEMORY_BYTES * (2 + source_degrees),
        )
        message_bytes = per_worker(
            list_workers, _PAIR_BYTES + ELEMENT_MEMORY_BYTES * (1 + list_elements)
        )
        merged_bytes = per_worker(
            vertex_workers[targets],
            _PAIR_BYTES
            + ELEMENT_MEMORY_BYTES * (received + received_elements)[targets],
        )
        joined_bytes = adjacency_bytes + per_worker(
            vertex_workers, ELEMENT_MEMORY_BYTES * (2 + received)
        )
        self._narrow_stage("mapVertices", vertices, vertices, n)
        self._allocate(adjacency_bytes)
        self._begin_stage("triplets")
        meter.charge_shuffle(0.0, count=0)  # vertex side, all local
        meter.charge_worker_compute(
            RECORD_CPU_OPS * (2 * arcs + vertices), random_accesses=arcs
        )
        meter.end_round(active_vertices=int(arcs.sum()))
        self._allocate(triplet_bytes)
        self._narrow_stage("sendMsg", arcs, messages, int(messages.sum()))
        self._allocate(message_bytes)
        self._begin_stage("mergeMsg")
        meter.charge_worker_compute(RECORD_CPU_OPS * messages)
        meter.charge_shuffle(remote_wire_bytes, count=int(remote.sum()))
        meter.charge_worker_compute(RECORD_CPU_OPS * per_worker(pair_home))
        meter.end_round(active_vertices=len(targets))
        self._allocate(merged_bytes)
        self._release(triplet_bytes)  # triplets.unpersist()
        self._release(message_bytes)  # messages.unpersist()
        self._begin_stage("cc-join")
        meter.charge_shuffle(0.0, count=0)  # vertex side, all local
        meter.charge_worker_compute(
            RECORD_CPU_OPS * (2 * vertices + merged), random_accesses=vertices
        )
        meter.end_round(active_vertices=n)
        self._allocate(joined_bytes)
        self._narrow_stage("local-cc", vertices, vertices, n)
        self._allocate(_PAIR_BYTES * vertices)
        self._begin_stage("cc-sum")
        meter.charge_worker_compute(RECORD_CPU_OPS * vertices)
        meter.charge_shuffle(
            shuffled_partials * _PAIR_WIRE_BYTES, count=shuffled_partials
        )
        meter.charge_worker_compute(RECORD_CPU_OPS * reduced)
        meter.end_round(active_vertices=int(sums.sum()))
        self._allocate(_PAIR_BYTES * sums)
        meter.begin_round("collect-cc-sum")
        meter.charge_worker_compute(RECORD_CPU_OPS * sums)
        meter.charge_shuffle(
            _PAIR_WIRE_BYTES * int(sums.sum()), count=int(sums.sum())
        )
        meter.end_round(active_vertices=int(sums.sum()))
        self._release(joined_bytes)  # joined.unpersist()
        self._release(merged_bytes)  # neighbor_lists.unpersist()
        self._release(adjacency_bytes)  # with_adjacency.unpersist()

        coefficients = lcc_values(
            csr_received_links(self.offsets, self.arc_target), self.degrees
        )
        clustering_sum = 0.0
        for partial in ordered_group_sum(vertex_workers, coefficients)[2].tolist():
            clustering_sum += partial
        return GraphStats(
            num_vertices=n,
            num_edges=int(arcs.sum()) // 2,
            mean_local_clustering=clustering_sum / n if n else 0.0,
        )

    # -- charge helpers -----------------------------------------------

    # Opener half of a paired helper: every caller closes the round with
    # end_round on all paths (and those callers are themselves verified
    # by the cost-protocol rule), so the open round this helper hands
    # back is intentional, not a leak.
    def _begin_stage(self, suffix: str) -> None:  # quality: ignore[cost-protocol]
        """Open a round named with the context's shared stage counter."""
        self.meter.begin_round(f"stage-{next(self.context._stage)}-{suffix}")

    def _narrow_stage(
        self,
        suffix: str,
        in_counts: np.ndarray,
        out_counts: np.ndarray,
        produced: int,
    ) -> None:
        """One narrow transformation: per-record CPU in and out."""
        self._begin_stage(suffix)
        self.meter.charge_worker_compute(RECORD_CPU_OPS * (in_counts + out_counts))
        self.meter.end_round(active_vertices=produced)

    def _allocate(self, bytes_per_worker: np.ndarray) -> None:
        """Materialize an RDD: cached bytes on every worker."""
        for worker in range(self.num_workers):
            self.meter.allocate_memory(worker, float(bytes_per_worker[worker]))

    def _release(self, bytes_per_worker: np.ndarray) -> None:
        """Unpersist an RDD: release its cached bytes."""
        for worker in range(self.num_workers):
            self.meter.release_memory(worker, float(bytes_per_worker[worker]))


def graphx_bfs_bulk(
    context: RDDContext, graph: Graph, source: int, max_iterations: int = 100
) -> dict[int, int]:
    """Bulk twin of :func:`~repro.platforms.rddgraph.algorithms.graphx_bfs`."""
    runner = BulkPregelRunner(context, graph, RDDBFSBulkKernel(source))
    with runner.graph_rdds():
        values, name = runner.run(max_iterations)
        runner.collect(name, _VERTEX_WIRE_BYTES)
    return dict(zip(runner.ids.tolist(), values.tolist()))


def graphx_conn_bulk(
    context: RDDContext, graph: Graph, max_iterations: int = 100
) -> dict[int, int]:
    """Bulk twin of :func:`~repro.platforms.rddgraph.algorithms.graphx_conn`."""
    runner = BulkPregelRunner(context, graph, RDDConnBulkKernel())
    with runner.graph_rdds():
        values, _name = runner.run(max_iterations)
        runner.map_values_stage("components")
        runner.collect("components", _PAIR_WIRE_BYTES)
    return dict(zip(runner.ids.tolist(), values.tolist()))


def graphx_pagerank_bulk(
    context: RDDContext,
    graph: Graph,
    damping: float = 0.85,
    iterations: int = 10,
) -> dict[int, float]:
    """Bulk twin of :func:`~repro.platforms.rddgraph.algorithms.graphx_pagerank`.

    Runs ``iterations + 1`` Pregel rounds like the scalar path — the
    final round finds no messages (the iteration budget is spent) and
    terminates the loop with the same charge sequence.
    """
    degrees = graph.to_undirected().out_degrees().astype(np.float64)
    kernel = RDDPageRankBulkKernel(degrees, damping, iterations)
    runner = BulkPregelRunner(context, graph, kernel)
    with runner.graph_rdds():
        values, name = runner.run(iterations + 1)
        runner.collect(name, _VERTEX_WIRE_BYTES)
    return dict(zip(runner.ids.tolist(), values.tolist()))


def graphx_sssp_bulk(
    context: RDDContext, graph: Graph, source: int
) -> dict[int, float]:
    """Bulk twin of :func:`~repro.platforms.rddgraph.algorithms.graphx_sssp`."""
    runner = BulkPregelRunner(context, graph, RDDSSSPBulkKernel(source))
    with runner.graph_rdds():
        values, name = runner.run(sssp_round_bound(len(runner.ids)))
        runner.collect(name, _VERTEX_WIRE_BYTES)
    return dict(zip(runner.ids.tolist(), values.tolist()))


def graphx_stats_bulk(context: RDDContext, graph: Graph) -> GraphStats:
    """Bulk twin of :func:`~repro.platforms.rddgraph.algorithms.graphx_stats`."""
    runner = BulkPregelRunner(context, graph)
    with runner.graph_rdds():
        return runner.run_stats()
