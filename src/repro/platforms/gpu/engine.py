"""BSP execution on a (simulated) GPU device.

Runs the same :class:`~repro.platforms.pregel.engine.VertexProgram`
interface as the Giraph simulation, but with GPU execution semantics:

* every superstep is a dense kernel over all vertices (inactive
  vertices still occupy threads — they just return immediately);
* vertices are mapped to *warps* of 32 consecutive threads; a warp's
  cost is ``32 × max(per-thread work)``, which is how degree skew
  burns GPU cycles (divergence + load imbalance);
* a fixed kernel-launch overhead is charged per superstep;
* all state — vertex values, adjacency, and both message buffers —
  lives in device memory, enforced against the GPU's RAM.

Messages are exchanged through device-memory buffers, so there is no
"network": message handling is just more per-thread work.
"""

from __future__ import annotations

from typing import Any

from repro.core.cost import ClusterSpec, CostMeter
from repro.platforms.pregel.engine import (
    MESSAGE_BYTES,
    VertexProgram,
    PregelResult,
)

__all__ = ["gpu_device_spec", "GPUEngine", "WARP_SIZE"]

#: Threads per warp (lockstep execution group).
WARP_SIZE = 32
#: Device bytes per vertex (value slot + flags, structure-of-arrays).
VERTEX_BYTES = 24.0
#: Device bytes per directed edge (CSR column entry).
EDGE_BYTES = 8.0
#: Kernel launch + host synchronization per superstep, seconds.
KERNEL_LAUNCH_SECONDS = 0.002


def gpu_device_spec() -> ClusterSpec:
    """A 2014-era compute GPU (Tesla K20-class).

    2496 CUDA cores; modest per-core scalar rate; 5 GB device memory
    (the hard wall the paper's GPU study keeps hitting); no network.
    """
    return ClusterSpec.from_profile("gpu-k20")


class _GPUVertexContext:
    """The vertex-program view of the GPU engine (Pregel-compatible)."""

    def __init__(self, engine: "GPUEngine"):
        self._engine = engine
        self.vertex: int = -1
        self.superstep: int = -1
        self._value: Any = None
        self._halted = False

    @property
    def num_vertices(self) -> int:
        """Total vertices on the device."""
        return len(self._engine.adjacency)

    @property
    def num_edges(self) -> int:
        """Total directed edges on the device."""
        return self._engine.num_arcs

    def neighbors(self) -> list[int]:
        """The current vertex's out-neighbors."""
        return self._engine.adjacency[self.vertex]

    def weighted_neighbors(self) -> list[tuple[int, float]]:
        """The current vertex's out-edges as ``(neighbor, weight)``."""
        return self._engine.weighted_adjacency[self.vertex]

    def degree(self) -> int:
        """The current vertex's out-degree."""
        return len(self._engine.adjacency[self.vertex])

    @property
    def value(self) -> Any:
        """The vertex's current value."""
        return self._value

    @value.setter
    def value(self, new_value: Any) -> None:
        """The vertex's current value."""
        self._value = new_value

    def send(self, target: int, message: Any) -> None:
        """Append a message to the device outbox."""
        self._engine._send(self.vertex, target, message)

    def send_to_neighbors(self, message: Any) -> None:
        """Message every out-neighbor."""
        for neighbor in self._engine.adjacency[self.vertex]:
            self._engine._send(self.vertex, neighbor, message)

    def vote_to_halt(self) -> None:
        """Deactivate until a message arrives."""
        self._halted = True

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute to a device-side aggregator."""
        self._engine._aggregate(name, value)

    def aggregated(self, name: str, default: Any = 0) -> Any:
        """Read an aggregator from the previous superstep."""
        return self._engine.aggregated.get(name, default)


class GPUEngine:
    """Executes Pregel vertex programs with GPU cost semantics."""

    def __init__(self, graph, spec: ClusterSpec, meter: CostMeter | None = None):
        undirected = graph.to_undirected()
        self.graph = undirected
        self.spec = spec
        self.meter = meter or CostMeter(spec)
        self.adjacency = {
            int(v): [int(u) for u in undirected.neighbors(int(v))]
            for v in undirected.vertices
        }
        self._weighted_adjacency: dict[int, list[tuple[int, float]]] | None = None
        self.num_arcs = sum(len(adj) for adj in self.adjacency.values())
        #: Dense thread order: consecutive vertex ids share a warp.
        self.thread_order = sorted(self.adjacency)
        self.aggregated: dict[str, Any] = {}
        self._pending_aggregates: dict[str, Any] = {}
        self._persistent_totals: dict[str, Any] = {}
        self._outbox: dict[int, list] = {}
        self._outbox_bytes = 0.0
        self._program: VertexProgram | None = None
        self._resident = 0.0

    @property
    def weighted_adjacency(self) -> dict[int, list[tuple[int, float]]]:
        """Out-adjacency with edge weights, built on first (SSSP) use."""
        if self._weighted_adjacency is None:
            self._weighted_adjacency = self.graph.weighted_adjacency()
        return self._weighted_adjacency

    # -- messaging ------------------------------------------------------

    def _send(self, source: int, target: int, message: Any) -> None:
        program = self._program
        combine = program.combiner()
        queue = self._outbox.setdefault(target, [])
        if combine is not None and queue:
            # Device-side combining (atomic min/add into a value slot).
            queue[0] = combine(queue[0], message)
            return
        queue.append(message)
        extra = program.message_size(message) + MESSAGE_BYTES
        self._outbox_bytes += extra
        self.meter.allocate_memory(0, extra)

    def _aggregate(self, name: str, value: Any) -> None:
        if name in self._pending_aggregates:
            self._pending_aggregates[name] += value
        else:
            self._pending_aggregates[name] = value

    # -- memory ------------------------------------------------------------

    def _load(self, program: VertexProgram) -> None:
        resident = (
            len(self.adjacency) * (VERTEX_BYTES + program.value_bytes)
            + self.num_arcs * EDGE_BYTES
        )
        self._resident = resident
        self.meter.allocate_memory(0, resident)

    def _unload(self) -> None:
        self.meter.release_memory(0, self._resident)
        self._resident = 0.0

    # -- execution -------------------------------------------------------------

    def run(self, program: VertexProgram) -> PregelResult:
        """Execute to halting; returns the Pregel-compatible result."""
        self._program = program
        self._load(program)
        try:
            return self._run_supersteps(program)
        finally:
            self._unload()
            self._program = None

    def _charge_kernel(self, work_per_vertex: dict[int, float]) -> None:
        """Warp-granular compute charging for one kernel launch.

        Each warp of 32 consecutive threads costs 32 × its maximum
        per-thread work; warps execute across the device's cores.
        """
        total_lane_ops = 0.0
        for start in range(0, len(self.thread_order), WARP_SIZE):
            warp = self.thread_order[start : start + WARP_SIZE]
            busiest = max(work_per_vertex.get(vertex, 1.0) for vertex in warp)
            total_lane_ops += WARP_SIZE * busiest
        self.meter.charge_compute(0, total_lane_ops / self.spec.hardware.cpu.cores)

    def _run_supersteps(self, program: VertexProgram) -> PregelResult:
        meter = self.meter
        context = _GPUVertexContext(self)
        values: dict[int, Any] = {}
        halted: dict[int, bool] = {}

        meter.begin_round("h2d-and-init")
        for vertex in self.thread_order:
            context.vertex = vertex
            context.superstep = -1
            values[vertex] = program.initial_value(vertex, context)
            halted[vertex] = False
        self._charge_kernel({v: 1.0 for v in self.thread_order})
        meter.end_round(active_vertices=len(values))

        inbox: dict[int, list] = {}
        superstep = 0
        while superstep < program.max_supersteps():
            compute_set = [
                v for v in self.thread_order if not halted[v] or v in inbox
            ]
            if not compute_set:
                break
            meter.begin_round(f"kernel-{superstep}", barrier=False)
            self._outbox = {}
            self._pending_aggregates = {}
            work: dict[int, float] = {}
            inbox_bytes_released = self._outbox_bytes
            self._outbox_bytes = 0.0
            for vertex in compute_set:
                messages = inbox.pop(vertex, [])
                halted[vertex] = False
                context.vertex = vertex
                context.superstep = superstep
                context._value = values[vertex]
                context._halted = False
                program.compute(context, messages)
                values[vertex] = context._value
                halted[vertex] = context._halted
                # Thread work: the messages digested plus edges touched
                # (senders walk their adjacency).
                work[vertex] = 1.0 + len(messages) + len(self.adjacency[vertex])
            self._charge_kernel(work)
            meter.release_memory(0, inbox_bytes_released)
            inbox = self._outbox
            self._outbox = {}

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

            # Kernel launch + host sync replaces the cluster barrier.
            meter.end_round(
                active_vertices=len(compute_set),
                barrier_seconds=KERNEL_LAUNCH_SECONDS,
            )
            superstep += 1
        else:
            raise RuntimeError(
                f"{type(program).__name__} exceeded "
                f"{program.max_supersteps()} supersteps"
            )

        self.meter.release_memory(0, self._outbox_bytes)
        self._outbox_bytes = 0.0
        return PregelResult(
            values=values,
            supersteps=superstep,
            aggregated={**self._persistent_totals, **self.aggregated},
        )
