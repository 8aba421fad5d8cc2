"""The Pregel BSP engine.

Executes a :class:`VertexProgram` over a partitioned graph in
supersteps, with real message passing, optional sender-side combiners,
global aggregators, and vote-to-halt semantics. Every superstep
charges the :class:`~repro.core.cost.CostMeter`:

* compute ops per worker — vertex invocations, messages processed,
  edges scanned (time per superstep is the *max* over workers, so the
  skewed-execution-intensity choke point is physically present);
* network bytes for messages whose target lives on another worker
  (hash partitioning, as in Giraph);
* one barrier per superstep (which dominates in the low-activity tail
  of converging algorithms — the paper's "many final iterations with
  little work" observation);
* message-buffer memory, on top of the resident partition memory, so
  message-heavy algorithms can exceed a worker's budget and fail.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.cost import ClusterSpec, CostMeter
from repro.graph.graph import Graph
from repro.graph.kernels import hash_worker, hash_workers

__all__ = ["VertexProgram", "VertexContext", "PregelEngine", "partition_of"]

#: Giraph-like resident memory per vertex (object + value + index).
VERTEX_BYTES = 56.0
#: Giraph-like resident memory per directed edge (primitive adjacency).
EDGE_BYTES = 24.0
#: Queued message overhead on top of the payload.
MESSAGE_BYTES = 16.0

#: Giraph-style hash partitioning of vertices onto workers.
partition_of = hash_worker


class VertexProgram(abc.ABC):
    """A Pregel computation: what every vertex runs each superstep."""

    #: Serialized payload size of one message, bytes.
    message_bytes: float = 8.0
    #: Resident value size per vertex, bytes (on top of VERTEX_BYTES).
    value_bytes: float = 8.0

    @abc.abstractmethod
    def initial_value(self, vertex: int, ctx: "VertexContext") -> Any:
        """Vertex value before superstep 0."""

    @abc.abstractmethod
    def compute(self, ctx: "VertexContext", messages: list) -> None:
        """The per-vertex kernel, as in Pregel/Giraph."""

    def combiner(self) -> Callable[[Any, Any], Any] | None:
        """Optional sender-side message combiner (e.g. min)."""
        return None

    def persistent_aggregators(self) -> set[str]:
        """Aggregators that accumulate across supersteps.

        Regular aggregators reset at every barrier (Giraph default);
        persistent ones keep summing — STATS uses them for its global
        counts.
        """
        return set()

    def message_size(self, message: Any) -> float:
        """Payload bytes of a concrete message (override if variable)."""
        return self.message_bytes

    def max_supersteps(self) -> int:
        """Safety bound; engines abort beyond it."""
        return 200

    def bulk_step(self):
        """Optional vectorized whole-superstep kernel.

        Programs whose compute is a pure function of the merged inbox
        (min combiner, fixed message size, no aggregators,
        vote-to-halt every superstep) may return a
        :class:`~repro.platforms.pregel.bulk.BulkVertexKernel`; the
        engine then executes supersteps as numpy frontier operations
        with bit-identical cost accounting. The default ``None`` keeps
        the scalar per-vertex path.
        """
        return None

    def bulk_runner(self, engine: "PregelEngine"):
        """The vectorized executor for this program, if any.

        The default wraps :meth:`bulk_step`'s kernel in the
        frontier-shaped
        :class:`~repro.platforms.pregel.bulk.BulkSuperstepRunner`,
        but only while :meth:`combiner` is ``min``: the runner charges
        one message per combined ``(target, source worker)`` pair, so
        a subclass that switches the combiner off must take the
        scalar path, which charges every message it sends. Programs
        whose vectorized execution does not fit that shape —
        PageRank's all-active, uncombined float summation — override
        this to return a dedicated runner instead. ``None`` keeps the
        scalar per-vertex path.
        """
        # Imported here: the bulk module depends on this one.
        from repro.platforms.pregel.bulk import BulkSuperstepRunner

        kernel = self.bulk_step()
        if kernel is None or self.combiner() is not min:
            return None
        return BulkSuperstepRunner(engine, self, kernel)


@dataclass
class _VertexState:
    value: Any = None
    active: bool = True


class VertexContext:
    """What a vertex program sees during ``compute``."""

    def __init__(self, engine: "PregelEngine"):
        self._engine = engine
        self.vertex: int = -1
        self.superstep: int = -1
        self._state: _VertexState | None = None

    # -- graph access --------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Total vertices in the graph."""
        return self._engine.graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Total arcs: an undirected edge counts once per direction."""
        return len(self._engine.graph.csr()[1])

    def neighbors(self) -> list[int]:
        """The current vertex's out-neighbors."""
        return self._engine.adjacency[self.vertex]

    def weighted_neighbors(self) -> list[tuple[int, float]]:
        """The current vertex's out-edges as ``(neighbor, weight)``.

        Requires a weighted graph (the SSSP workload precondition,
        enforced at workload-resolution time).
        """
        return self._engine.weighted_adjacency[self.vertex]

    def degree(self) -> int:
        """The current vertex's out-degree."""
        return len(self._engine.adjacency[self.vertex])

    # -- value ----------------------------------------------------------

    @property
    def value(self) -> Any:
        """The vertex's current value."""
        return self._state.value

    @value.setter
    def value(self, new_value: Any) -> None:
        """The vertex's current value."""
        self._state.value = new_value

    # -- messaging / control ---------------------------------------------

    def send(self, target: int, message: Any) -> None:
        """Queue a message to an arbitrary vertex."""
        self._engine._send(self.vertex, target, message)

    def send_to_neighbors(self, message: Any) -> None:
        """Queue a message to every out-neighbor."""
        for neighbor in self._engine.adjacency[self.vertex]:
            self._engine._send(self.vertex, neighbor, message)

    def vote_to_halt(self) -> None:
        """Deactivate this vertex until a message arrives."""
        self._state.active = False

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute to a global aggregator (summed at the barrier)."""
        self._engine._aggregate(name, value)

    def aggregated(self, name: str, default: Any = 0) -> Any:
        """Read an aggregator's value from the *previous* superstep."""
        return self._engine.aggregated.get(name, default)


@dataclass
class PregelResult:
    """Output of one Pregel run."""

    values: dict[int, Any]
    supersteps: int
    aggregated: dict[str, Any] = field(default_factory=dict)


class PregelEngine:
    """Runs vertex programs under BSP semantics with cost accounting."""

    def __init__(
        self,
        graph: Graph,
        spec: ClusterSpec,
        meter: CostMeter | None = None,
        partition: dict[int, int] | None = None,
        adaptive_central_fraction: float | None = None,
        bulk: bool = True,
    ):
        self.graph = graph
        self.spec = spec
        self.meter = meter or CostMeter(spec)
        # Per-vertex structures (the adjacency dict and the partition
        # dict) are built lazily: the bulk path never touches them and
        # skips their O(vertices) Python construction entirely.
        self._adjacency: dict[int, list[int]] | None = None
        self._weighted_adjacency: dict[int, list[tuple[int, float]]] | None = None
        vertex_ids = self.graph.vertices
        if partition is None:
            # Giraph's default hash partitioning; alternatives live in
            # :mod:`repro.platforms.pregel.partitioning`.
            self._worker_array = hash_workers(vertex_ids, spec.num_workers)
            self._partition_dict: dict[int, int] | None = None
        else:
            missing = set(int(v) for v in vertex_ids) - set(partition)
            if missing:
                raise ValueError(f"partition map misses {len(missing)} vertices")
            out_of_range = {
                worker
                for worker in partition.values()
                if not 0 <= worker < spec.num_workers
            }
            if out_of_range:
                raise ValueError(
                    f"partition map assigns unknown workers: {out_of_range}"
                )
            self._partition_dict = dict(partition)
            self._worker_array = np.fromiter(
                (self._partition_dict[int(v)] for v in vertex_ids),
                dtype=np.int64,
                count=len(vertex_ids),
            )
        # The paper's remedy for low-activity tails: "adaptive
        # switching of distributed computation to central computation
        # to handle iterations with little work". When the active set
        # drops below this fraction of the vertices, the superstep
        # runs on one worker: no barrier, no network.
        if adaptive_central_fraction is not None and not (
            0.0 < adaptive_central_fraction <= 1.0
        ):
            raise ValueError("adaptive_central_fraction must be in (0, 1]")
        self.adaptive_central_fraction = adaptive_central_fraction
        #: Take the vectorized path for programs that offer a
        #: :meth:`VertexProgram.bulk_step` kernel; ``False`` forces the
        #: scalar per-vertex path (the escape hatch).
        self.bulk = bulk
        self._central_mode = False
        self.aggregated: dict[str, Any] = {}
        self._pending_aggregates: dict[str, Any] = {}
        self._persistent_totals: dict[str, Any] = {}
        self._outbox: dict[int, list] = {}
        self._combined_outbox: dict[int, dict[int, Any]] = {}
        self._resident_bytes: list[float] = [0.0] * spec.num_workers
        self._message_bytes_queued: list[float] = [0.0] * spec.num_workers
        self._program: VertexProgram | None = None

    # -- lazy per-vertex structures ----------------------------------------

    @property
    def adjacency(self) -> dict[int, list[int]]:
        """Out-adjacency as Python lists, built on first (scalar) use.

        Vertex programs see out-adjacency; Graphalytics loads
        undirected graphs as symmetric arc sets.
        """
        if self._adjacency is None:
            self._adjacency = self.graph.adjacency()
        return self._adjacency

    @property
    def weighted_adjacency(self) -> dict[int, list[tuple[int, float]]]:
        """Out-adjacency with edge weights, built on first use.

        Only SSSP touches this; it requires a weighted graph.
        """
        if self._weighted_adjacency is None:
            self._weighted_adjacency = self.graph.weighted_adjacency()
        return self._weighted_adjacency

    @property
    def partition(self) -> dict[int, int]:
        """Vertex id -> worker mapping (built lazily for the default)."""
        if self._partition_dict is None:
            self._partition_dict = {
                int(v): int(w)
                for v, w in zip(self.graph.vertices, self._worker_array)
            }
        return self._partition_dict

    @property
    def worker_array(self) -> np.ndarray:
        """Worker of each vertex, ordered by dense vertex index."""
        return self._worker_array

    # -- memory ------------------------------------------------------------

    def load_partitions(self, program: VertexProgram) -> None:
        """Charge the resident partition memory of the loaded graph."""
        workers = self._worker_array
        per_worker_vertices = np.bincount(
            workers, minlength=self.spec.num_workers
        )
        per_worker_edges = np.bincount(
            workers,
            weights=self.graph.out_degrees().astype(np.float64),
            minlength=self.spec.num_workers,
        )
        for worker in range(self.spec.num_workers):
            resident = (
                per_worker_vertices[worker] * (VERTEX_BYTES + program.value_bytes)
                + per_worker_edges[worker] * EDGE_BYTES
            )
            self._resident_bytes[worker] = resident
            self.meter.allocate_memory(worker, resident)

    def unload_partitions(self) -> None:
        """Release the loaded partitions' memory."""
        for worker in range(self.spec.num_workers):
            self.meter.release_memory(worker, self._resident_bytes[worker])
            self._resident_bytes[worker] = 0.0

    # -- messaging ----------------------------------------------------------

    def _send(self, source: int, target: int, message: Any) -> None:
        program = self._program
        if self._central_mode:
            # Central supersteps keep all traffic on one worker.
            src_worker = dst_worker = 0
        else:
            src_worker = self.partition[source]
            dst_worker = self.partition[target]
        payload = program.message_size(message)
        combine = program.combiner()
        if combine is not None:
            # Sender-side combining: Giraph merges messages for the
            # same target *per source worker* before they hit the
            # wire, so at most one message per (worker, target) pair
            # crosses the network each superstep.
            per_worker = self._combined_outbox.setdefault(target, {})
            if src_worker in per_worker:
                per_worker[src_worker] = combine(per_worker[src_worker], message)
                self.meter.charge_compute(src_worker, 1)
                return
            per_worker[src_worker] = message
        else:
            self._outbox.setdefault(target, []).append(message)
        self.meter.charge_message(src_worker, dst_worker, payload)
        extra = payload + MESSAGE_BYTES
        self._message_bytes_queued[dst_worker] += extra
        self.meter.allocate_memory(dst_worker, extra)

    def _aggregate(self, name: str, value: Any) -> None:
        if name in self._pending_aggregates:
            self._pending_aggregates[name] += value
        else:
            self._pending_aggregates[name] = value

    # -- execution ------------------------------------------------------------

    def run(self, program: VertexProgram) -> PregelResult:
        """Execute the program to halting; returns final vertex values.

        Programs that provide a :meth:`VertexProgram.bulk_runner`
        executor run through the vectorized superstep path (unless the
        engine was built with ``bulk=False``); the cost profile is
        identical either way.
        """
        self._program = program
        self.load_partitions(program)
        try:
            runner = program.bulk_runner(self) if self.bulk else None
            if runner is not None:
                return runner.run()
            return self._run_supersteps(program)
        finally:
            self.unload_partitions()
            self._program = None

    def _run_supersteps(self, program: VertexProgram) -> PregelResult:
        meter = self.meter
        context = VertexContext(self)
        states: dict[int, _VertexState] = {}

        # Superstep -1 in Giraph terms: value initialization.
        meter.begin_round("init")
        for vertex in self.adjacency:
            context.vertex = vertex
            context.superstep = -1
            state = _VertexState()
            states[vertex] = state
            context._state = state
            state.value = program.initial_value(vertex, context)
            meter.charge_compute(self.partition[vertex], 1)
        meter.end_round(active_vertices=len(states))

        inbox: dict[int, list] = {}
        superstep = 0
        while superstep < program.max_supersteps():
            compute_set = [
                v for v, s in states.items() if s.active or v in inbox
            ]
            if not compute_set:
                break
            self._central_mode = (
                self.adaptive_central_fraction is not None
                and len(compute_set)
                < self.adaptive_central_fraction * len(states)
            )
            meter.begin_round(
                f"superstep-{superstep}"
                + ("-central" if self._central_mode else ""),
                barrier=not self._central_mode,
            )
            self._outbox = {}
            self._combined_outbox = {}
            self._pending_aggregates = {}
            for vertex in compute_set:
                state = states[vertex]
                worker = 0 if self._central_mode else self.partition[vertex]
                messages = inbox.pop(vertex, [])
                state.active = True
                context.vertex = vertex
                context.superstep = superstep
                context._state = state
                program.compute(context, messages)
                # One op per invocation plus one per message digested.
                meter.charge_compute(worker, 1 + len(messages))
            # Barrier: queued messages become next superstep's inbox,
            # aggregators publish, message buffers are released.
            inbox = self._outbox
            for target, per_worker in self._combined_outbox.items():
                # Receiver-side final combine of the per-worker messages.
                combine = program.combiner()
                merged = None
                for message in per_worker.values():
                    merged = message if merged is None else combine(merged, message)
                inbox.setdefault(target, []).append(merged)
            self._outbox = {}
            self._combined_outbox = {}
            for worker in range(self.spec.num_workers):
                self.meter.release_memory(worker, self._message_bytes_queued[worker])
                self._message_bytes_queued[worker] = 0.0
            # Re-account resident inbox memory for the next superstep.
            for target, queue in inbox.items():
                worker = 0 if self._central_mode else self.partition[target]
                size = sum(program.message_size(m) + MESSAGE_BYTES for m in queue)
                self._message_bytes_queued[worker] += size
                self.meter.allocate_memory(worker, size)
            persistent = program.persistent_aggregators()
            regular: dict[str, Any] = {}
            for name, value in self._pending_aggregates.items():
                if name in persistent:
                    self._persistent_totals[name] = (
                        self._persistent_totals.get(name, 0) + value
                    )
                else:
                    regular[name] = value
            self.aggregated = regular
            meter.end_round(active_vertices=len(compute_set))
            superstep += 1
        else:
            raise RuntimeError(
                f"{type(program).__name__} exceeded "
                f"{program.max_supersteps()} supersteps"
            )

        for worker in range(self.spec.num_workers):
            self.meter.release_memory(worker, self._message_bytes_queued[worker])
            self._message_bytes_queued[worker] = 0.0
        return PregelResult(
            values={v: s.value for v, s in states.items()},
            supersteps=superstep,
            aggregated={**self._persistent_totals, **self.aggregated},
        )
