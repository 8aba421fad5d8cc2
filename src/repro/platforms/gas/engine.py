"""The Gather-Apply-Scatter engine (GraphLab/PowerGraph model).

Synchronous GAS execution over a **vertex cut**:

* every (undirected) edge is hash-assigned to one worker;
* a vertex is *replicated* on every worker that owns one of its
  edges; one replica (by vertex hash) is the *master*;
* each round, active vertices **gather** over their incident edges —
  each edge's gather runs on the worker that owns the edge, against
  local replica state; per-worker partial sums travel mirror→master
  (one small message per mirror, *not* per edge — the reason
  PowerGraph beats Pregel on power-law hubs);
* the master **applies** the update and broadcasts the new value back
  to the mirrors;
* **scatter** runs per edge on the edge's worker and decides which
  neighbors activate next round.

Costs are charged per worker per round to the shared
:class:`~repro.core.cost.CostMeter`: gathers and scatters on the
edge's worker, mirror synchronization as network traffic, replicated
vertex state plus local edges as worker memory.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.cost import ClusterSpec, CostMeter
from repro.graph.graph import Graph
from repro.graph.kernels import _KNUTH, hash_worker, hash_workers

__all__ = ["GASProgram", "GASEngine", "GASResult", "edge_partition_of"]

#: Replicated vertex state per replica (value + activation + index).
REPLICA_BYTES = 48.0
#: Per-edge storage on the owning worker.
EDGE_BYTES = 16.0


def edge_partition_of(source: int, target: int, num_workers: int) -> int:
    """Hash-assign an undirected edge to a worker (the vertex cut)."""
    low, high = (source, target) if source <= target else (target, source)
    mixed = ((low * _KNUTH) ^ (high * 0x9E3779B9)) & 0xFFFFFFFF
    return mixed % num_workers


class GASProgram(abc.ABC):
    """A GraphLab vertex program: gather, apply, scatter."""

    #: Serialized size of one partial gather sum (mirror→master).
    gather_bytes: float = 16.0
    #: Serialized size of one vertex value (master→mirror broadcast).
    value_bytes: float = 16.0

    @abc.abstractmethod
    def initial_value(self, vertex: int, degree: int) -> Any:
        """Vertex value before the first round."""

    @abc.abstractmethod
    def initially_active(self, vertex: int) -> bool:
        """Whether the vertex participates in round 0."""

    @abc.abstractmethod
    def gather(self, vertex: int, value: Any, neighbor: int,
               neighbor_value: Any, neighbor_degree: int) -> Any:
        """Contribution of one incident edge (``None`` contributes nothing)."""

    @abc.abstractmethod
    def gather_sum(self, left: Any, right: Any) -> Any:
        """Commutative, associative combination of gather contributions."""

    @abc.abstractmethod
    def apply(self, vertex: int, value: Any, gathered: Any) -> Any:
        """New vertex value from the combined gather (or ``None`` sum)."""

    @abc.abstractmethod
    def scatter(self, vertex: int, old_value: Any, new_value: Any,
                neighbor: int) -> bool:
        """Whether this edge activates ``neighbor`` for the next round."""

    def gather_size(self, partial: Any) -> float:
        """Bytes of one partial gather sum (override if variable)."""
        return self.gather_bytes

    def value_size(self, value: Any) -> float:
        """Bytes of one vertex value (override if variable)."""
        return self.value_bytes

    def max_rounds(self) -> int:
        """Safety bound on GAS rounds."""
        return 200

    def bulk_rounds(self):
        """Optional vectorized whole-round kernel.

        Programs whose gather/apply/scatter phases are elementwise
        expressions with a ``min`` gather sum and fixed message sizes
        may return a :class:`~repro.platforms.gas.bulk.GASBulkKernel`;
        the engine then executes synchronous rounds as numpy
        operations with bit-identical cost accounting. The default
        ``None`` keeps the scalar per-arc path.
        """
        return None

    def bulk_runner(self, engine: "GASEngine"):
        """The vectorized executor for this program, if any.

        The default wraps :meth:`bulk_rounds`'s kernel in the
        min-reducing :class:`~repro.platforms.gas.bulk.BulkRoundRunner`.
        Programs whose vectorized execution does not fit that shape —
        PageRank's order-sensitive float gather sum — override this to
        return a dedicated runner instead. ``None`` keeps the scalar
        per-arc path.
        """
        # Imported here: the bulk module depends on this one.
        from repro.platforms.gas.bulk import BulkRoundRunner

        kernel = self.bulk_rounds()
        if kernel is None:
            return None
        return BulkRoundRunner(engine, self, kernel)


@dataclass
class GASResult:
    """Output of one GAS run."""

    values: dict[int, Any]
    rounds: int
    replication_factor: float = 1.0


@dataclass
class _VertexTopology:
    """Replica placement of one vertex across the cut."""

    master: int
    mirrors: set[int] = field(default_factory=set)

    @property
    def replicas(self) -> set[int]:
        """All workers holding a copy of this vertex."""
        return self.mirrors | {self.master}


class GASEngine:
    """Runs GAS programs over a vertex-cut partitioning."""

    def __init__(
        self,
        graph: Graph,
        spec: ClusterSpec,
        meter: CostMeter | None = None,
        bulk: bool = True,
    ):
        undirected = graph.to_undirected()
        self.graph = undirected
        self.spec = spec
        self.meter = meter or CostMeter(spec)
        #: Take the vectorized round path for programs that offer a
        #: :meth:`GASProgram.bulk_rounds` kernel; ``False`` forces the
        #: scalar per-arc path (the escape hatch).
        self.bulk = bulk

        # The vertex cut, computed vectorized over the CSR arrays.
        # For non-negative ids, uint64 wraparound preserves the low 32
        # bits of each product, so the cut equals the scalar
        # :func:`edge_partition_of` element-wise.
        workers = np.uint64(spec.num_workers)
        ids = undirected.vertices
        n = undirected.num_vertices
        self._masters = hash_workers(ids, spec.num_workers)
        arc_source = np.repeat(
            np.arange(n, dtype=np.int64), undirected.out_degrees()
        )
        _, arc_target = undirected.csr()
        self._arc_workers = self._cut_workers(
            ids[arc_source], ids[arc_target], workers
        )
        edges = undirected.edges
        self._edges_per_worker = [
            int(count)
            for count in np.bincount(
                self._cut_workers(edges[:, 0], edges[:, 1], workers),
                minlength=spec.num_workers,
            )
        ]
        # Replica placement: a vertex lives on every worker owning one
        # of its arcs, plus its master.
        replica_pairs = np.unique(
            np.concatenate(
                [
                    arc_source * spec.num_workers + self._arc_workers,
                    np.arange(n, dtype=np.int64) * spec.num_workers
                    + self._masters,
                ]
            )
        )
        replica_vertices = replica_pairs // spec.num_workers
        replica_workers = replica_pairs % spec.num_workers
        self._replicas_per_worker = np.bincount(
            replica_workers, minlength=spec.num_workers
        )
        self._total_replicas = len(replica_pairs)
        mirror = replica_workers != self._masters[replica_vertices]
        self._mirror_workers = replica_workers[mirror]
        self._mirror_offsets = np.concatenate(
            [
                np.zeros(1, dtype=np.int64),
                np.cumsum(np.bincount(replica_vertices[mirror], minlength=n)),
            ]
        )
        # Per-vertex Python structures are built lazily: the bulk path
        # never touches them and skips their O(edges) construction.
        self._adjacency: dict[int, list[int]] | None = None
        self._degrees: dict[int, int] | None = None
        self._edge_worker: dict[tuple[int, int], int] | None = None
        self._topology: dict[int, _VertexTopology] | None = None
        self._resident = [0.0] * spec.num_workers

    @staticmethod
    def _cut_workers(
        source_ids: np.ndarray, target_ids: np.ndarray, num_workers: np.uint64
    ) -> np.ndarray:
        """Vectorized :func:`edge_partition_of` over id arrays."""
        low = np.minimum(source_ids, target_ids).astype(np.uint64)
        high = np.maximum(source_ids, target_ids).astype(np.uint64)
        mixed = (
            (low * np.uint64(_KNUTH)) ^ (high * np.uint64(0x9E3779B9))
        ) & np.uint64(0xFFFFFFFF)
        return (mixed % num_workers).astype(np.int64)

    # -- lazy per-vertex structures -----------------------------------------

    @property
    def adjacency(self) -> dict[int, list[int]]:
        """Neighbor lists as Python ints, built on first (scalar) use."""
        if self._adjacency is None:
            self._adjacency = self.graph.adjacency()
        return self._adjacency

    @property
    def degrees(self) -> dict[int, int]:
        """Vertex id -> degree, built on first (scalar) use."""
        if self._degrees is None:
            self._degrees = {v: len(adj) for v, adj in self.adjacency.items()}
        return self._degrees

    @property
    def edge_worker(self) -> dict[tuple[int, int], int]:
        """Canonical edge -> owning worker, built on first (scalar) use."""
        if self._edge_worker is None:
            self._build_cut_dicts()
        return self._edge_worker

    @property
    def topology(self) -> dict[int, _VertexTopology]:
        """Vertex id -> replica placement, built on first (scalar) use."""
        if self._topology is None:
            self._build_cut_dicts()
        return self._topology

    def _build_cut_dicts(self) -> None:
        """Materialize the scalar path's edge/replica dictionaries."""
        self._topology = {
            v: _VertexTopology(
                master=hash_worker(v, self.spec.num_workers)
            )
            for v in self.adjacency
        }
        self._edge_worker = {}
        # Placement bookkeeping for the scalar path, not simulated
        # work: the engine charges for graph loading in _load.
        for source, target in self.graph.iter_edges():  # quality: ignore[cost-accounting]
            worker = edge_partition_of(source, target, self.spec.num_workers)
            self._edge_worker[(source, target)] = worker
            for endpoint in (source, target):
                topo = self._topology[endpoint]
                if worker != topo.master:
                    topo.mirrors.add(worker)

    # -- placement metadata -------------------------------------------------

    @property
    def masters(self) -> np.ndarray:
        """Master worker of each vertex, ordered by dense vertex index."""
        return self._masters

    @property
    def arc_workers(self) -> np.ndarray:
        """Owning worker of each CSR arc (aligned with ``graph.csr()``)."""
        return self._arc_workers

    @property
    def mirror_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex mirror workers as ``(offsets, workers)`` CSR arrays."""
        return self._mirror_offsets, self._mirror_workers

    @property
    def replication_factor(self) -> float:
        """Mean replicas per vertex (PowerGraph's key metric)."""
        if self.graph.num_vertices == 0:
            return 1.0
        return self._total_replicas / self.graph.num_vertices

    def _edge_owner(self, u: int, v: int) -> int:
        key = (u, v) if u <= v else (v, u)
        return self.edge_worker[key]

    # -- memory ---------------------------------------------------------------

    def _load(self, program: GASProgram) -> None:
        # count * integer-valued-bytes is exactly the scalar per-replica
        # accumulation (float64 integer arithmetic below 2**53).
        per_worker = self._replicas_per_worker * (
            REPLICA_BYTES + program.value_bytes
        ) + np.asarray(self._edges_per_worker, dtype=np.float64) * EDGE_BYTES
        for worker in range(self.spec.num_workers):
            resident = float(per_worker[worker])
            self._resident[worker] = resident
            self.meter.allocate_memory(worker, resident)

    def _unload(self) -> None:
        for worker in range(self.spec.num_workers):
            self.meter.release_memory(worker, self._resident[worker])
            self._resident[worker] = 0.0

    # -- execution --------------------------------------------------------------

    def run(self, program: GASProgram) -> GASResult:
        """Execute the program to quiescence; returns final values.

        Programs that provide a :meth:`GASProgram.bulk_runner`
        executor run through the vectorized round path (unless the
        engine was built with ``bulk=False``); the cost profile is
        identical either way.
        """
        runner = program.bulk_runner(self) if self.bulk else None
        self._load(program)
        try:
            if runner is not None:
                return runner.run()
            return self._run_rounds(program)
        finally:
            self._unload()

    def run_async(self, program: GASProgram) -> GASResult:
        """Asynchronous (Gauss-Seidel) execution for monotone programs.

        The paper lists "the use of asynchronous distributed query
        processing" among the remedies for the skew/synchronization
        choke point. This mode sweeps vertices in order, applying
        updates *immediately* — a gather late in the sweep sees values
        written earlier in the same sweep — so label/distance
        information crosses many hops per sweep instead of one hop per
        barriered round.

        Correct only for *monotone* programs (BFS, CONN: values only
        ever improve and the fixpoint is order-independent); programs
        like CD whose specification is synchronous must use
        :meth:`run`.
        """
        self._load(program)
        try:
            return self._run_async_sweeps(program)
        finally:
            self._unload()

    def _run_async_sweeps(self, program: GASProgram) -> GASResult:
        meter = self.meter
        values = {
            v: program.initial_value(v, self.degrees[v]) for v in self.adjacency
        }
        active = {v for v in self.adjacency if program.initially_active(v)}
        sweeps = 0
        while active and sweeps < program.max_rounds():
            meter.begin_round(f"async-sweep-{sweeps}")
            next_active: set[int] = set()
            for vertex in sorted(active):
                gathered = None
                for neighbor in self.adjacency[vertex]:
                    worker = self._edge_owner(vertex, neighbor)
                    contribution = program.gather(
                        vertex,
                        values[vertex],
                        neighbor,
                        values[neighbor],  # freshest value: async
                        self.degrees[neighbor],
                    )
                    meter.charge_compute(worker, 1)
                    if contribution is None:
                        continue
                    gathered = (
                        contribution
                        if gathered is None
                        else program.gather_sum(gathered, contribution)
                    )
                master = self.topology[vertex].master
                meter.charge_compute(master, 1)
                updated = program.apply(vertex, values[vertex], gathered)
                if updated != values[vertex]:
                    for mirror in self.topology[vertex].mirrors:
                        meter.charge_message(
                            master, mirror, program.value_size(updated)
                        )
                old_value = values[vertex]
                values[vertex] = updated  # applied immediately
                for neighbor in self.adjacency[vertex]:
                    worker = self._edge_owner(vertex, neighbor)
                    meter.charge_compute(worker, 1)
                    if program.scatter(vertex, old_value, updated, neighbor):
                        next_active.add(neighbor)
            meter.end_round(active_vertices=len(active))
            active = next_active
            sweeps += 1
        if active:
            raise RuntimeError(
                f"{type(program).__name__} exceeded {program.max_rounds()} sweeps"
            )
        return GASResult(
            values=values,
            rounds=sweeps,
            replication_factor=self.replication_factor,
        )

    def _run_rounds(self, program: GASProgram) -> GASResult:
        meter = self.meter
        values = {
            v: program.initial_value(v, self.degrees[v]) for v in self.adjacency
        }
        active = {v for v in self.adjacency if program.initially_active(v)}

        rounds = 0
        while active and rounds < program.max_rounds():
            meter.begin_round(f"gas-{rounds}")
            # ---- gather: per edge, on the edge's worker -------------------
            partials: dict[int, dict[int, Any]] = {}  # vertex -> worker -> sum
            for vertex in active:
                for neighbor in self.adjacency[vertex]:
                    worker = self._edge_owner(vertex, neighbor)
                    contribution = program.gather(
                        vertex,
                        values[vertex],
                        neighbor,
                        values[neighbor],
                        self.degrees[neighbor],
                    )
                    meter.charge_compute(worker, 1)
                    if contribution is None:
                        continue
                    per_worker = partials.setdefault(vertex, {})
                    if worker in per_worker:
                        per_worker[worker] = program.gather_sum(
                            per_worker[worker], contribution
                        )
                    else:
                        per_worker[worker] = contribution

            # ---- mirror→master partial-sum exchange ------------------------
            gathered: dict[int, Any] = {}
            for vertex, per_worker in partials.items():
                master = self.topology[vertex].master
                total = None
                for worker, partial in per_worker.items():
                    if worker != master:
                        meter.charge_message(
                            worker, master, program.gather_size(partial)
                        )
                    total = (
                        partial
                        if total is None
                        else program.gather_sum(total, partial)
                    )
                meter.charge_compute(master, len(per_worker))
                gathered[vertex] = total

            # ---- apply on masters + broadcast *changes* to mirrors ----------
            new_values = dict(values)
            for vertex in sorted(active):
                master = self.topology[vertex].master
                meter.charge_compute(master, 1)
                updated = program.apply(vertex, values[vertex], gathered.get(vertex))
                new_values[vertex] = updated
                if updated != values[vertex]:
                    # PowerGraph synchronizes mirrors only when the
                    # value actually changed.
                    for mirror in self.topology[vertex].mirrors:
                        meter.charge_message(
                            master, mirror, program.value_size(updated)
                        )

            # ---- scatter: per edge, on the edge's worker ----------------------
            next_active: set[int] = set()
            for vertex in active:
                old_value = values[vertex]
                new_value = new_values[vertex]
                for neighbor in self.adjacency[vertex]:
                    worker = self._edge_owner(vertex, neighbor)
                    meter.charge_compute(worker, 1)
                    if program.scatter(vertex, old_value, new_value, neighbor):
                        next_active.add(neighbor)

            values = new_values
            meter.end_round(active_vertices=len(active))
            active = next_active
            rounds += 1
        if active:
            raise RuntimeError(
                f"{type(program).__name__} exceeded {program.max_rounds()} rounds"
            )
        return GASResult(
            values=values,
            rounds=rounds,
            replication_factor=self.replication_factor,
        )
