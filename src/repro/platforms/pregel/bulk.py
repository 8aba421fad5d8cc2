"""Vectorized (bulk) superstep execution for the Pregel engine.

The scalar engine runs one Python-level ``compute`` call per vertex
and one ``CostMeter`` charge per vertex/message. For data-parallel
programs whose per-vertex kernel is a pure function of the merged
inbox — BFS frontier expansion, HashMin label propagation and
label-correcting SSSP — the whole superstep can instead run as a
handful of numpy operations over the CSR arrays (the
:mod:`repro.graph.kernels` gather and group-reduce), with per-worker
op/message tallies charged through
:meth:`~repro.core.cost.CostMeter.charge_worker_compute` /
:meth:`~repro.core.cost.CostMeter.charge_worker_messages`. This module
keeps only the Pregel charge policy and queued-message memory.

The contract, verified by ``tests/test_bulk_equivalence.py``: a bulk
run produces *bit-identical* outputs and cost profiles to the scalar
path. The charge structure below therefore mirrors
``PregelEngine._run_supersteps`` exactly:

* one op per computed vertex plus one per merged message digested;
* per distinct ``(target, source worker)`` pair, one message charge
  (sender-side combining) and queued-buffer memory on the receiving
  worker; every further send into the pair is one combine op on the
  source worker;
* at the barrier, queued buffers are released and the merged inbox is
  re-accounted on the receiving workers;
* adaptive central supersteps run everything on worker 0 with no
  barrier, exactly like the scalar engine.

A weighted kernel (SSSP) sends one value per sender, and the runner
adds each arc's weight from :meth:`~repro.graph.graph.Graph.csr_weights`
to it, central supersteps included — the ``value + weight`` float
addition the scalar relaxation performs per arc.

A program opts in by returning a :class:`BulkVertexKernel` from
:meth:`~repro.platforms.pregel.engine.VertexProgram.bulk_step`; the
kernel only applies to programs with a ``min`` combiner, fixed-size
messages, no aggregators, and vote-to-halt-every-superstep semantics.
:meth:`~repro.platforms.pregel.engine.VertexProgram.bulk_runner`
checks the combiner itself, so a subclass that switches it off runs
on the scalar path (and is charged for every uncombined message).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.algorithms.bfs import UNREACHABLE
from repro.algorithms.sssp import UNREACHABLE_DISTANCE
from repro.graph.kernels import csr_gather, dense_index, group_reduce

__all__ = [
    "BulkVertexKernel",
    "BFSBulkKernel",
    "ConnBulkKernel",
    "SSSPBulkKernel",
    "BulkSuperstepRunner",
    "PageRankBulkRunner",
]


class BulkVertexKernel(abc.ABC):
    """Vectorized counterpart of a :class:`VertexProgram`'s compute.

    Kernels operate on dense vertex indices (positions in
    ``graph.vertices``) and numpy value arrays. The runner owns all
    cost accounting; a kernel only transforms values and decides who
    sends what.
    """

    #: Receiver-side reduction over combined messages (min semantics).
    reduce = np.minimum
    #: Whether the runner adds each arc's weight to the value sent
    #: along it (the graph must be weighted).
    weighted = False

    @abc.abstractmethod
    def initial_values(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Dense initial value array (one entry per vertex id)."""

    @abc.abstractmethod
    def compute(
        self,
        superstep: int,
        values: np.ndarray,
        frontier: np.ndarray,
        merged: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One whole superstep over the compute set.

        ``frontier`` holds the dense indices of the vertices computing
        this superstep (all vertices at superstep 0, message targets
        afterwards) and ``merged`` the combined message per frontier
        vertex (``None`` at superstep 0). Mutates ``values`` in place
        and returns ``(senders, send_values)``: the dense indices that
        send to their out-neighbors and the value each one sends.
        """


class BFSBulkKernel(BulkVertexKernel):
    """Vectorized BFS frontier expansion (min combiner).

    Mirrors :class:`~repro.platforms.pregel.programs.BFSProgram`: the
    source seeds distance 0 at superstep 0; afterwards unreached
    message targets adopt the merged (minimum) distance and forward
    ``distance + 1``.
    """

    def __init__(self, source: int):
        self.source = source
        self._source_idx: int | None = None

    def initial_values(self, vertex_ids: np.ndarray) -> np.ndarray:
        """All vertices start unreached; remembers the source index."""
        self._source_idx = dense_index(vertex_ids, self.source)
        return np.full(len(vertex_ids), UNREACHABLE, dtype=np.int64)

    def compute(self, superstep, values, frontier, merged):
        """One BFS superstep (see :class:`BulkVertexKernel`)."""
        empty = np.empty(0, dtype=np.int64)
        if superstep == 0:
            if self._source_idx is None:
                return empty, empty
            values[self._source_idx] = 0
            return (
                np.array([self._source_idx], dtype=np.int64),
                np.array([1], dtype=np.int64),
            )
        fresh = values[frontier] == UNREACHABLE
        newly = frontier[fresh]
        values[newly] = merged[fresh]
        return newly, merged[fresh] + 1


class ConnBulkKernel(BulkVertexKernel):
    """Vectorized HashMin label propagation (min combiner).

    Mirrors :class:`~repro.platforms.pregel.programs.ConnProgram`:
    every vertex broadcasts its own label at superstep 0; afterwards a
    vertex adopts and re-broadcasts any strictly smaller merged label.
    """

    def initial_values(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Every vertex starts labeled with its own id."""
        return vertex_ids.astype(np.int64, copy=True)

    def compute(self, superstep, values, frontier, merged):
        """One HashMin superstep (see :class:`BulkVertexKernel`)."""
        if superstep == 0:
            return frontier, values[frontier].copy()
        adopt = merged < values[frontier]
        newly = frontier[adopt]
        values[newly] = merged[adopt]
        return newly, merged[adopt]


class SSSPBulkKernel(ConnBulkKernel):
    """Vectorized label-correcting SSSP (min combiner, weighted arcs).

    Mirrors :class:`~repro.platforms.pregel.programs.SSSPProgram`: the
    source starts at distance 0 and relaxes its out-arcs at superstep
    0; afterwards a vertex adopts a strictly smaller merged offer and
    relaxes again. Each sender sends its distance; the runner adds
    the arc weights.
    """

    weighted = True

    def __init__(self, source: int):
        self.source = source
        self._source_idx: int | None = None

    def initial_values(self, vertex_ids: np.ndarray) -> np.ndarray:
        """The source at 0.0, every other vertex unreached."""
        self._source_idx = dense_index(vertex_ids, self.source)
        values = np.full(len(vertex_ids), UNREACHABLE_DISTANCE)
        if self._source_idx is not None:
            values[self._source_idx] = 0.0
        return values

    def compute(self, superstep, values, frontier, merged):
        """One relaxation superstep (see :class:`BulkVertexKernel`)."""
        if superstep > 0:
            return super().compute(superstep, values, frontier, merged)
        if self._source_idx is None:
            return np.empty(0, dtype=np.int64), np.empty(0)
        senders = np.array([self._source_idx], dtype=np.int64)
        return senders, values[senders]


class BulkSuperstepRunner:
    """Drives a :class:`BulkVertexKernel` with exact scalar-path costs.

    Instantiated by :meth:`PregelEngine.run` when the program offers a
    kernel and the engine's bulk path is enabled; shares the engine's
    meter, partition map, and queued-message bookkeeping so that
    memory accounting (including the final release) matches the
    scalar path bit for bit.
    """

    def __init__(self, engine, program, kernel: BulkVertexKernel):
        from repro.platforms.pregel.engine import MESSAGE_BYTES

        self.engine = engine
        self.meter = engine.meter
        self.program = program
        self.kernel = kernel
        graph = engine.graph
        self.ids = graph.vertices
        self.offsets, self.targets = graph.csr()
        #: Per-arc weights for a weighted kernel, else ``None``.
        self.weights = (
            graph.csr_weights()
            if kernel is not None and kernel.weighted
            else None
        )
        self.n = graph.num_vertices
        self.num_workers = engine.spec.num_workers
        self.workers = engine.worker_array
        #: Queued bytes per message: payload plus buffer overhead.
        self.message_memory = float(program.message_bytes) + MESSAGE_BYTES
        self.payload = float(program.message_bytes)

    def run(self):
        """Execute to halting; returns a scalar-identical result."""
        from repro.platforms.pregel.engine import PregelResult

        engine, meter, program = self.engine, self.meter, self.program
        values = self.kernel.initial_values(self.ids)

        meter.begin_round("init")
        meter.charge_worker_compute(
            np.bincount(self.workers, minlength=self.num_workers)
        )
        meter.end_round(active_vertices=self.n)

        frontier = np.arange(self.n, dtype=np.int64)
        merged: np.ndarray | None = None
        superstep = 0
        while superstep < program.max_supersteps():
            if len(frontier) == 0:
                break
            central = (
                engine.adaptive_central_fraction is not None
                and len(frontier) < engine.adaptive_central_fraction * self.n
            )
            engine._central_mode = central
            meter.begin_round(
                f"superstep-{superstep}" + ("-central" if central else ""),
                barrier=not central,
            )
            computed = len(frontier)
            self._charge_compute(frontier, central, messages=min(superstep, 1))
            senders, send_values = self.kernel.compute(
                superstep, values, frontier, merged
            )
            frontier, merged = self._deliver(senders, send_values, central)
            meter.end_round(active_vertices=computed)
            superstep += 1
        else:
            raise RuntimeError(
                f"{type(program).__name__} exceeded "
                f"{program.max_supersteps()} supersteps"
            )

        self._release_queued()
        return PregelResult(
            values=dict(zip(self.ids.tolist(), values.tolist())),
            supersteps=superstep,
            aggregated={},
        )

    # -- charge policy ------------------------------------------------

    def _charge_compute(
        self, frontier: np.ndarray, central: bool, messages: int
    ) -> None:
        """One op per computed vertex plus one per digested message."""
        if central:
            ops = np.zeros(self.num_workers, dtype=np.int64)
            ops[0] = len(frontier) * (1 + messages)
        else:
            ops = np.bincount(
                self.workers[frontier], minlength=self.num_workers
            ) * (1 + messages)
        self.meter.charge_worker_compute(ops)

    def _deliver(
        self, senders: np.ndarray, send_values: np.ndarray, central: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Expand sends over the CSR, charge them, run the barrier.

        Returns the next superstep's ``(frontier, merged)``.
        """
        positions, counts = csr_gather(self.offsets, senders)
        if len(positions) == 0:
            self._barrier_memory(np.empty(0, dtype=np.int64), central)
            return np.empty(0, dtype=np.int64), None

        flat_dst = self.targets[positions]
        flat_values = np.repeat(send_values, counts)
        if self.weights is not None:
            flat_values += self.weights[positions]
        if central:
            flat_src_w = np.zeros(len(positions), dtype=np.int64)
        else:
            flat_src_w = np.repeat(self.workers[senders], counts)

        # Sender-side combining: one wire message per distinct
        # (target, source worker) pair, one combine op per duplicate.
        key = flat_dst * self.num_workers + flat_src_w
        unique_keys, group_sizes = np.unique(key, return_counts=True)
        pair_dst = unique_keys // self.num_workers
        pair_src_w = unique_keys % self.num_workers
        pair_dst_w = (
            np.zeros(len(pair_dst), dtype=np.int64)
            if central
            else self.workers[pair_dst]
        )
        self.meter.charge_worker_messages(pair_src_w, pair_dst_w, self.payload)
        self.meter.charge_worker_compute(
            np.bincount(
                pair_src_w,
                weights=(group_sizes - 1).astype(np.float64),
                minlength=self.num_workers,
            )
        )
        self._queue_memory(pair_dst_w)

        # Receiver-side merge: reduce all values aimed at each target.
        new_frontier, merged = group_reduce(
            self.kernel.reduce, flat_dst, flat_values
        )
        self._barrier_memory(new_frontier, central)
        return new_frontier, merged

    def _queue_memory(self, dst_workers: np.ndarray) -> None:
        """Allocate queued-message buffers on the receiving workers."""
        engine, meter = self.engine, self.meter
        per_worker = (
            np.bincount(dst_workers, minlength=self.num_workers)
            * self.message_memory
        )
        for worker in np.nonzero(per_worker)[0]:
            engine._message_bytes_queued[worker] += per_worker[worker]
            meter.allocate_memory(int(worker), float(per_worker[worker]))

    def _barrier_memory(self, new_frontier: np.ndarray, central: bool) -> None:
        """Release queued buffers, re-account the merged inbox."""
        self._release_queued()
        if len(new_frontier) == 0:
            return
        if central:
            receivers = np.zeros(len(new_frontier), dtype=np.int64)
        else:
            receivers = self.workers[new_frontier]
        self._queue_memory(receivers)

    def _release_queued(self) -> None:
        """Release all queued message memory (scalar barrier step)."""
        engine, meter = self.engine, self.meter
        for worker in range(self.num_workers):
            meter.release_memory(worker, engine._message_bytes_queued[worker])
            engine._message_bytes_queued[worker] = 0.0


class PageRankBulkRunner(BulkSuperstepRunner):
    """Vectorized fixed-iteration PageRank with exact scalar costs.

    PageRank does not fit :class:`BulkSuperstepRunner`'s
    frontier/min-combiner shape: every vertex computes every
    superstep, there is no combiner (every arc is one wire message and
    one queued buffer), and the inbox reduction is a *float sum* whose
    result depends on operand order. The scalar engine appends outbox
    messages in ascending-sender order (the compute set iterates the
    sorted vertex states) and each vertex folds its inbox
    left-to-right from ``0.0`` — ``np.add.at`` over the natural CSR
    arc stream performs exactly those additions in exactly that order,
    so bulk ranks are bit-identical to the scalar path (unlike
    ``np.add.reduceat``, whose pairwise summation is not).
    """

    def __init__(self, engine, program):
        super().__init__(engine, program, kernel=None)

    def run(self):
        """Execute ``iterations`` update rounds; scalar-identical."""
        from repro.platforms.pregel.engine import PregelResult

        engine, meter, program = self.engine, self.meter, self.program
        n, num_workers = self.n, self.num_workers
        damping, iterations = program.damping, program.iterations

        meter.begin_round("init")
        meter.charge_worker_compute(np.bincount(self.workers, minlength=num_workers))
        meter.end_round(active_vertices=n)
        if n == 0:
            return PregelResult(values={}, supersteps=0, aggregated={})

        engine._central_mode = False
        out_degrees = self.offsets[1:] - self.offsets[:-1]
        flat_src = np.repeat(np.arange(n, dtype=np.int64), out_degrees)
        flat_dst = self.targets
        src_workers = self.workers[flat_src]
        dst_workers = self.workers[flat_dst]
        degrees_float = out_degrees.astype(np.float64)
        in_counts = np.bincount(flat_dst, minlength=n).astype(np.float64)
        vertex_ops = np.bincount(self.workers, minlength=num_workers)
        message_ops = np.bincount(
            self.workers, weights=in_counts, minlength=num_workers
        )

        values = np.full(n, 1.0 / n, dtype=np.float64)
        base = (1.0 - damping) / n
        shares: np.ndarray | None = None  # per-arc messages in flight
        for superstep in range(iterations + 1):
            meter.begin_round(f"superstep-{superstep}", barrier=True)
            if superstep == 0:
                meter.charge_worker_compute(vertex_ops)
            else:
                # One op per vertex plus one per digested message
                # (each vertex receives exactly its in-degree shares).
                meter.charge_worker_compute(vertex_ops + message_ops)
                accumulated = np.zeros(n, dtype=np.float64)
                np.add.at(accumulated, flat_dst, shares)
                values = base + damping * accumulated
            if superstep < iterations:
                shares = values[flat_src] / degrees_float[flat_src]
                meter.charge_worker_messages(
                    src_workers, dst_workers, self.payload
                )
                self._queue_memory(dst_workers)  # outbox during compute
                self._release_queued()  # barrier: inbox + outbox
                self._queue_memory(dst_workers)  # re-account new inbox
            else:
                shares = None
                self._release_queued()
            meter.end_round(active_vertices=n)
        self._release_queued()
        return PregelResult(
            values={
                int(vertex): float(value)
                for vertex, value in zip(self.ids, values)
            },
            supersteps=iterations + 1,
            aggregated={},
        )
