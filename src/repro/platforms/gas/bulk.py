"""Vectorized (bulk) round execution for the GAS engine.

The scalar engine runs Python-level ``gather``/``apply``/``scatter``
calls per incident arc and per active vertex, with one ``CostMeter``
charge per event. For programs whose phases are elementwise numpy
expressions with a ``min`` gather sum — BFS distance pulling, HashMin
label propagation and label-correcting SSSP — a whole round collapses
into a handful of CSR array operations (the :mod:`repro.graph.kernels`
gather, group-reduce and ordered group-sum), with per-worker tallies
charged through
:meth:`~repro.core.cost.CostMeter.charge_worker_compute` /
:meth:`~repro.core.cost.CostMeter.charge_worker_messages`. This module
keeps only the GAS charge policy.

The contract, verified by ``tests/test_bulk_equivalence.py``: a bulk
run produces *bit-identical* outputs and cost profiles to the scalar
path. The charge structure below therefore mirrors
``GASEngine._run_rounds`` exactly:

* gather — one op per incident arc of every active vertex, on the
  worker that owns the edge (charged whether or not the arc
  contributes);
* mirror→master — per distinct ``(vertex, worker)`` pair holding a
  partial, one ``gather_bytes`` message to the master when the holder
  is not the master itself, plus one combine op on the master;
* apply — one op per active vertex on its master; when the value
  changed, one ``value_bytes`` message from the master to every
  mirror;
* scatter — one op per incident arc on the owning worker.

A weighted kernel (SSSP) offers the neighbor's value per arc, and the
runner adds the arc's weight from
:meth:`~repro.graph.graph.Graph.csr_weights` to every contribution —
the ``value + weight`` float addition of the scalar gather.

A program opts in by returning a :class:`GASBulkKernel` from
:meth:`~repro.platforms.gas.engine.GASProgram.bulk_rounds`; the engine
falls back to the scalar path for everything else (and always for
:meth:`~repro.platforms.gas.engine.GASEngine.run_async`).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.algorithms.bfs import UNREACHABLE
from repro.algorithms.sssp import UNREACHABLE_DISTANCE
from repro.graph.kernels import (
    csr_gather,
    dense_index,
    group_keys,
    group_reduce,
    ordered_group_sum,
    sorted_unique,
)

__all__ = [
    "GASBulkKernel",
    "GASBFSBulkKernel",
    "GASConnBulkKernel",
    "GASSSSPBulkKernel",
    "BulkRoundRunner",
    "GASPageRankBulkRunner",
]


class GASBulkKernel(abc.ABC):
    """Vectorized counterpart of a :class:`GASProgram`'s three phases.

    Kernels operate on dense vertex indices (positions in
    ``graph.vertices``) and numpy value arrays. The runner owns all
    cost accounting; a kernel only transforms values and decides
    which arcs contribute and which vertices activate.
    """

    #: Combination of gather contributions (``gather_sum`` semantics).
    reduce = np.minimum
    #: Whether the runner adds each arc's weight to its contribution
    #: (the graph must be weighted).
    weighted = False

    @abc.abstractmethod
    def initial_values(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Dense initial value array (one entry per vertex id)."""

    @abc.abstractmethod
    def initially_active(
        self, vertex_ids: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Sorted dense indices of the round-0 active set."""

    @abc.abstractmethod
    def gather_arcs(
        self, neighbor_values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-arc contributions from the neighbors' current values.

        Returns ``(mask, contributions)`` where ``mask`` marks the
        arcs that contribute (scalar ``gather`` returned non-``None``)
        and ``contributions`` holds one value per *masked* arc.
        """

    @abc.abstractmethod
    def apply(
        self,
        active: np.ndarray,
        old_values: np.ndarray,
        gathered_mask: np.ndarray,
        gathered: np.ndarray,
    ) -> np.ndarray:
        """New value per active vertex from the combined gathers.

        ``gathered`` is only meaningful where ``gathered_mask`` is
        set (vertices whose gather produced at least one
        contribution).
        """

    def scatter_flags(
        self, old_values: np.ndarray, new_values: np.ndarray
    ) -> np.ndarray:
        """Which active vertices activate their neighbors (per vertex).

        BFS, CONN and SSSP scatter predicates depend only on the
        vertex's own old/new value, so one flag per active vertex
        expands to all of its incident arcs.
        """
        return new_values != old_values


class GASBFSBulkKernel(GASBulkKernel):
    """Vectorized GAS BFS (pull the minimum neighbor distance).

    Mirrors :class:`~repro.platforms.gas.programs.GASBFSProgram`: only
    the source starts active; reached neighbors offer ``distance + 1``;
    a newly reached vertex adopts the minimum offer and wakes its
    neighbors.
    """

    def __init__(self, source: int):
        self.source = source
        self._source_idx: int | None = None

    def initial_values(self, vertex_ids: np.ndarray) -> np.ndarray:
        """All vertices start unreached; remembers the source index."""
        self._source_idx = dense_index(vertex_ids, self.source)
        return np.full(len(vertex_ids), UNREACHABLE, dtype=np.int64)

    def initially_active(self, vertex_ids, values):
        """Only the source starts active (nothing if it is absent)."""
        if self._source_idx is None:
            return np.empty(0, dtype=np.int64)
        return np.array([self._source_idx], dtype=np.int64)

    def gather_arcs(self, neighbor_values):
        """Reached neighbors offer ``their distance + 1``."""
        mask = neighbor_values != UNREACHABLE
        return mask, neighbor_values[mask] + 1

    def apply(self, active, old_values, gathered_mask, gathered):
        """Adopt the gathered distance on first reach (source: 0)."""
        new_values = old_values.copy()
        unreached = old_values == UNREACHABLE
        adopt = unreached & gathered_mask
        new_values[adopt] = gathered[adopt]
        # The source bootstraps to 0 regardless of gathers, exactly
        # like the scalar apply's `vertex == source` branch.
        source_here = unreached & (active == self._source_idx)
        new_values[source_here] = 0
        return new_values


class GASConnBulkKernel(GASBulkKernel):
    """Vectorized GAS CONN (minimum-label propagation).

    Mirrors :class:`~repro.platforms.gas.programs.GASConnProgram`:
    everyone starts active in its own component; every arc offers the
    neighbor's label; a vertex adopts a strictly smaller label and
    wakes its neighbors.
    """

    def initial_values(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Every vertex starts labeled with its own id."""
        return vertex_ids.astype(np.int64, copy=True)

    def initially_active(self, vertex_ids, values):
        """Everyone participates in round 0."""
        return np.arange(len(vertex_ids), dtype=np.int64)

    def gather_arcs(self, neighbor_values):
        """Every arc offers the neighbor's current label."""
        return np.ones(len(neighbor_values), dtype=bool), neighbor_values

    def apply(self, active, old_values, gathered_mask, gathered):
        """Adopt a smaller label when one arrived."""
        adopt = gathered_mask & (gathered < old_values)
        return np.where(adopt, gathered, old_values)

    def scatter_flags(self, old_values, new_values):
        """A shrunken label wakes the neighbors that can still improve."""
        return new_values < old_values


class GASSSSPBulkKernel(GASBFSBulkKernel):
    """Vectorized GAS SSSP (pull the minimum weighted offer).

    Mirrors :class:`~repro.platforms.gas.programs.GASSSSPProgram`:
    only the source starts active; reached neighbors offer their
    distance, to which the runner adds the arc weight; a vertex
    adopts a strictly smaller offer and wakes its neighbors.
    """

    weighted = True

    def initial_values(self, vertex_ids: np.ndarray) -> np.ndarray:
        """All vertices start unreached; remembers the source index."""
        self._source_idx = dense_index(vertex_ids, self.source)
        return np.full(len(vertex_ids), UNREACHABLE_DISTANCE)

    def gather_arcs(self, neighbor_values):
        """Reached neighbors offer their distance (weights added later)."""
        mask = neighbor_values != UNREACHABLE_DISTANCE
        return mask, neighbor_values[mask]

    def apply(self, active, old_values, gathered_mask, gathered):
        """Adopt any improvement (source: distance 0)."""
        best = old_values.copy()
        source_here = active == self._source_idx
        best[source_here] = np.minimum(best[source_here], 0.0)
        adopt = gathered_mask & (gathered < best)
        best[adopt] = gathered[adopt]
        return best

    def scatter_flags(self, old_values, new_values):
        """A shortened distance wakes the neighbors."""
        return new_values < old_values


class BulkRoundRunner:
    """Drives a :class:`GASBulkKernel` with exact scalar-path costs.

    Instantiated by :meth:`GASEngine.run` when the program offers a
    kernel and the engine's bulk path is enabled; reads the engine's
    vectorized vertex-cut arrays (arc owners, masters, mirror lists)
    so every per-worker tally matches the scalar loops bit for bit.
    """

    def __init__(self, engine, program, kernel: GASBulkKernel):
        self.engine = engine
        self.meter = engine.meter
        self.program = program
        self.kernel = kernel
        graph = engine.graph
        self.ids = graph.vertices
        self.offsets, self.targets = graph.csr()
        self.n = graph.num_vertices
        self.num_workers = engine.spec.num_workers
        self.masters = engine.masters
        self.arc_workers = engine.arc_workers
        self.mirror_offsets, self.mirror_workers = engine.mirror_csr
        #: Per-arc weights for a weighted kernel, else ``None``.
        self.weights = (
            graph.csr_weights()
            if kernel is not None and kernel.weighted
            else None
        )
        self.gather_payload = float(program.gather_bytes)
        self.value_payload = float(program.value_bytes)

    def run(self):
        """Execute to quiescence; returns a scalar-identical result."""
        from repro.platforms.gas.engine import GASResult

        meter, program, kernel = self.meter, self.program, self.kernel
        values = kernel.initial_values(self.ids)
        active = kernel.initially_active(self.ids, values)

        rounds = 0
        while len(active) and rounds < program.max_rounds():
            meter.begin_round(f"gas-{rounds}")
            positions, arc_owner, arc_neighbor, arc_counts = self._expand_arcs(
                active
            )
            # Gather: one op per incident arc, on the edge's worker,
            # contributing or not.
            arc_ops = np.bincount(arc_owner, minlength=self.num_workers)
            meter.charge_worker_compute(arc_ops)
            mask, contributions = kernel.gather_arcs(values[arc_neighbor])
            if self.weights is not None:
                contributions = contributions + self.weights[positions[mask]]
            gathered_vertices, gathered = self._exchange_partials(
                np.repeat(active, arc_counts)[mask], arc_owner[mask], contributions
            )
            # Spread the per-vertex gathers over the active set.
            slots = np.searchsorted(active, gathered_vertices)
            gathered_mask = np.zeros(len(active), dtype=bool)
            gathered_mask[slots] = True
            gathered_full = np.zeros(len(active), dtype=gathered.dtype)
            gathered_full[slots] = gathered
            # Apply: one op per active vertex on its master; broadcast
            # changed values to the mirrors.
            meter.charge_worker_compute(
                np.bincount(self.masters[active], minlength=self.num_workers)
            )
            old_values = values[active]
            new_values = kernel.apply(active, old_values, gathered_mask, gathered_full)
            self._broadcast_changes(active[new_values != old_values])
            # Scatter: one op per incident arc on the edge's worker.
            meter.charge_worker_compute(arc_ops)
            flags = kernel.scatter_flags(old_values, new_values)
            next_active = sorted_unique(arc_neighbor[np.repeat(flags, arc_counts)])
            values[active] = new_values
            meter.end_round(active_vertices=len(active))
            active = next_active
            rounds += 1
        if len(active):
            raise RuntimeError(
                f"{type(program).__name__} exceeded {program.max_rounds()} rounds"
            )
        return GASResult(
            values=dict(zip(self.ids.tolist(), values.tolist())),
            rounds=rounds,
            replication_factor=self.engine.replication_factor,
        )

    # -- phase helpers ------------------------------------------------

    def _expand_arcs(
        self, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Incident arcs of the active set from the CSR arrays.

        Returns ``(arc_positions, owner_workers, neighbor_indices,
        per_vertex_counts)`` grouped by active vertex — the same arc
        enumeration the scalar gather and scatter loops walk.
        """
        positions, counts = csr_gather(self.offsets, active)
        return (
            positions,
            self.arc_workers[positions],
            self.targets[positions],
            counts,
        )

    def _exchange_partials(
        self,
        contrib_vertices: np.ndarray,
        contrib_workers: np.ndarray,
        contributions: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Combine contributions per (vertex, worker), sync to masters.

        Returns the sorted vertices that gathered anything and their
        combined values.
        """
        pair_keys, partials = group_reduce(
            self.kernel.reduce,
            contrib_vertices * self.num_workers + contrib_workers,
            contributions,
        )
        pair_vertex = self._sync_partials(pair_keys)
        return group_reduce(self.kernel.reduce, pair_vertex, partials)

    def _sync_partials(self, pair_keys: np.ndarray) -> np.ndarray:
        """Charge the mirror→master sync of ``vertex * W + worker`` partials.

        One ``gather_bytes`` message per partial held off its vertex's
        master and one combine op per partial on the master, exactly
        like the scalar exchange. Returns each partial's vertex.
        """
        pair_vertex = pair_keys // self.num_workers
        pair_worker = pair_keys % self.num_workers
        pair_master = self.masters[pair_vertex]
        remote = pair_worker != pair_master
        self.meter.charge_worker_messages(
            pair_worker[remote], pair_master[remote], self.gather_payload
        )
        self.meter.charge_worker_compute(
            np.bincount(pair_master, minlength=self.num_workers)
        )
        return pair_vertex

    def _broadcast_changes(self, changed: np.ndarray) -> None:
        """Master→mirror value messages for every changed vertex."""
        positions, counts = csr_gather(self.mirror_offsets, changed)
        self.meter.charge_worker_messages(
            np.repeat(self.masters[changed], counts),
            self.mirror_workers[positions],
            self.value_payload,
        )


class GASPageRankBulkRunner(BulkRoundRunner):
    """Vectorized fixed-iteration PageRank with exact scalar costs.

    PageRank's gather sum is a *float addition*, so the result depends
    on operand order and :class:`BulkRoundRunner`'s ``reduceat``-based
    exchange (pairwise summation) cannot reproduce the scalar path.
    The scalar engine folds contributions in two levels: per
    ``(vertex, worker)`` partial in incident-arc order, then
    mirror→master partials in dict-insertion (first-contributing-arc)
    order. ``np.add.at`` performs additions sequentially in index
    order, so streaming the arcs in that exact order gives bit-equal
    ranks. Everything but the ranks depends only on the active set,
    which is every vertex with an edge from the second round on, so
    each distinct active set gets one :class:`_GatherPlan`.
    """

    def __init__(self, engine, program):
        super().__init__(engine, program, kernel=None)

    def run(self):
        """Execute ``iterations`` synchronous rounds; scalar-identical."""
        from repro.platforms.gas.engine import GASResult

        meter, program = self.meter, self.program
        n = self.n
        damping, iterations = program.damping, program.iterations
        values = np.full(n, 1.0 / n if n else 0.0, dtype=np.float64)
        applied = np.zeros(n, dtype=np.int64)
        degrees = (self.offsets[1:] - self.offsets[:-1]).astype(np.float64)
        base = (1.0 - damping) / n if n else 0.0

        active = (
            np.arange(n, dtype=np.int64)
            if iterations > 0
            else np.empty(0, dtype=np.int64)
        )
        rounds = 0
        plan = None
        while len(active):
            if plan is None or not np.array_equal(active, plan.active):
                plan = _GatherPlan(self, active)
            meter.begin_round(f"gas-{rounds}")
            meter.charge_worker_compute(plan.arc_ops)  # gather: one op per incident arc
            contributions = values[plan.arc_neighbor] / degrees[plan.arc_neighbor]
            self._sync_partials(plan.pairs.keys)
            gathered = plan.fold(contributions)
            # Apply on the masters; every vertex's (rank, iteration)
            # value changes, so every mirror hears about it.
            meter.charge_worker_compute(plan.apply_ops)
            values[active] = base + damping * gathered
            applied[active] += 1
            self._broadcast_changes(active)
            meter.charge_worker_compute(plan.arc_ops)  # scatter: one op per incident arc
            meter.end_round(active_vertices=len(active))
            rounds += 1
            if rounds < iterations:
                active = plan.next_active
            else:
                active = np.empty(0, dtype=np.int64)
        return GASResult(
            values={
                int(vertex): (float(rank), int(iteration))
                for vertex, rank, iteration in zip(self.ids, values, applied)
            },
            rounds=rounds,
            replication_factor=self.engine.replication_factor,
        )


class _GatherPlan:
    """The incident arcs and partial groupings of one active set.

    Contributions sum per ``(vertex, worker)`` pair in arc order (the
    scalar per-worker accumulation); the pairs then fold per vertex in
    first-contributing-arc order (the scalar dict-insertion merge).
    """

    def __init__(self, runner: BulkRoundRunner, active: np.ndarray):
        num_workers = runner.num_workers
        self.active = active
        _, arc_owner, self.arc_neighbor, arc_counts = runner._expand_arcs(active)
        self.arc_ops = np.bincount(arc_owner, minlength=num_workers)
        self.apply_ops = np.bincount(runner.masters[active], minlength=num_workers)
        #: Contributions grouped per ``vertex * num_workers + worker``.
        self.pairs = group_keys(np.repeat(active, arc_counts) * num_workers + arc_owner)
        self._insertion = np.argsort(self.pairs.first, kind="stable")
        self._slots = np.searchsorted(active, self.pairs.keys // num_workers)[
            self._insertion
        ]
        #: Every vertex a scatter reaches: the next round's active set.
        self.next_active = sorted_unique(self.arc_neighbor)

    def fold(self, contributions: np.ndarray) -> np.ndarray:
        """The gather sum per active vertex (0.0 where nothing gathered,
        which is what the PageRank apply uses for a ``None`` gather)."""
        partials = ordered_group_sum(self.pairs, contributions)
        gathered = np.zeros(len(self.active), dtype=np.float64)
        np.add.at(gathered, self._slots, partials[self._insertion])
        return gathered
