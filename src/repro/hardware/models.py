"""Component hardware models composing a simulated machine.

The cost model's machine used to be one flat bag of constants on
``ClusterSpec``. This module promotes each device to its own model —
:class:`CpuModel`, :class:`NicModel`, :class:`DiskModel` — composed
into a :class:`HardwareProfile`, the component-per-device design of
performance simulators: every per-round second the
:class:`~repro.core.cost.CostMeter` derives comes from one of these
models, so swapping a profile answers hardware what-if questions
(10GbE vs RDMA, HDD vs NVMe) on an already-recorded workload.

Physics, per synchronization round:

* **CPU** — BSP barrier time is the max over workers of combined work:
  ``ops / (cores * ops_per_second) + random * random_access_seconds``.
* **NIC** — three additive terms: byte *transfer* at aggregate
  bandwidth, per-message *latency* (``remote_messages *
  message_latency_seconds / num_workers``: workers inject in
  parallel), and an M/M/1-style *queueing* delay
  ``service * queueing_factor * rho / (1 - rho)`` where the
  utilization ``rho = service / (service + compute)`` is capped at
  :data:`RHO_CAP` — a round that overlaps communication with compute
  keeps its queues short; a communication-bound round pays the
  congested-fabric penalty.
* **Disk** — striped (declared-balanced) bytes move at aggregate
  sequential bandwidth; per-worker attributed bytes cost the *max*
  over workers (a skewed writer is a straggler, exactly like skewed
  compute); random I/O pays the (much lower) random bandwidth.
* **Memory pressure** — once a worker's live set exceeds
  :data:`MEMORY_PRESSURE_THRESHOLD` of its RAM, compute is multiplied
  by ``1 + memory_pressure_factor * overshoot`` (GC/paging drag).

Every term is guarded so that a zeroed parameter contributes exactly
nothing: with ``message_latency_seconds == 0``, ``queueing_factor ==
0`` and ``memory_pressure_factor == 0`` the formulas reduce
bit-for-bit to the pre-profile flat-constant model (the differential
tests in ``tests/differential/`` pin that).

This module imports nothing from ``repro.core`` — the cost meter
imports *it* — so the charge layer and the hardware layer cannot form
an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "CpuModel",
    "NicModel",
    "DiskModel",
    "HardwareProfile",
    "RoundTimes",
    "RHO_CAP",
    "MEMORY_PRESSURE_THRESHOLD",
]

#: Utilization cap for the M/M/1 queueing term: rho -> 1 diverges, and
#: a simulated round is a closed system, so the delay factor saturates
#: at ``1 + queueing_factor * 0.95 / 0.05 = 1 + 19 * queueing_factor``.
RHO_CAP = 0.95

#: Live-set fraction of worker RAM above which memory pressure starts
#: slowing compute (GC churn, page eviction).
MEMORY_PRESSURE_THRESHOLD = 0.5


@dataclass(frozen=True)
class CpuModel:
    """One worker's processor: cores and per-core operation rates."""

    #: Cores used per worker machine.
    cores: int
    #: Simple-operation throughput per core (edge scans, message
    #: handling), operations/second.
    ops_per_second: float
    #: Cost of one cache-missing random memory access, seconds.
    random_access_seconds: float

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError("cores must be >= 1")

    @property
    def worker_ops_per_second(self) -> float:
        """Aggregate simple-operation throughput of one worker."""
        return self.cores * self.ops_per_second

    def worker_seconds(self, ops: float, random_accesses: float) -> float:
        """One worker's busy time for its share of a round."""
        return (
            ops / self.worker_ops_per_second
            + random_accesses * self.random_access_seconds
        )

    def scaled(self, throughput: float) -> "CpuModel":
        """Divide throughput (and grow access latency) by a factor."""
        return CpuModel(
            cores=self.cores,
            ops_per_second=self.ops_per_second / throughput,
            random_access_seconds=self.random_access_seconds * throughput,
        )


@dataclass(frozen=True)
class NicModel:
    """The interconnect: bandwidth, per-message latency, queueing."""

    #: Per-machine network bandwidth, bytes/second.
    bandwidth: float
    #: Fixed per-message cost (interrupt/stack traversal/serialization
    #: overhead), seconds. Zero models perfectly batched transport.
    message_latency_seconds: float = 0.0
    #: M/M/1-style congestion coefficient; zero disables queueing.
    queueing_factor: float = 0.0

    def service_seconds(
        self, remote_bytes: float, remote_messages: int, num_workers: int
    ) -> tuple[float, float]:
        """(transfer, latency) service time of one round's traffic.

        Bytes move at aggregate bandwidth (every NIC transmits in
        parallel); per-message overhead is likewise paid concurrently
        across the ``num_workers`` injecting workers.
        """
        transfer = (
            remote_bytes / (num_workers * self.bandwidth)
            if remote_bytes
            else 0.0
        )
        latency = (
            remote_messages * self.message_latency_seconds / num_workers
            if remote_messages and self.message_latency_seconds
            else 0.0
        )
        return transfer, latency

    def queueing_seconds(
        self, service_seconds: float, compute_seconds: float
    ) -> float:
        """M/M/1-style queueing delay for one round.

        ``rho = service / (service + compute)``: communication fully
        overlapped by compute keeps utilization low; a round that is
        pure communication drives the fabric to :data:`RHO_CAP`.
        """
        if not self.queueing_factor or service_seconds <= 0.0:
            return 0.0
        busy = service_seconds + compute_seconds
        rho = min(service_seconds / busy, RHO_CAP) if busy > 0.0 else RHO_CAP
        return service_seconds * self.queueing_factor * rho / (1.0 - rho)

    def scaled(self, throughput: float) -> "NicModel":
        """Divide bandwidth by a factor (latency terms untouched)."""
        return NicModel(
            bandwidth=self.bandwidth / throughput,
            message_latency_seconds=self.message_latency_seconds,
            queueing_factor=self.queueing_factor,
        )


@dataclass(frozen=True)
class DiskModel:
    """Secondary storage: sequential vs random byte rates."""

    #: Streaming read/write bandwidth, bytes/second.
    seq_bandwidth: float
    #: Random (seek-dominated) bandwidth, bytes/second.
    random_bandwidth: float

    def round_seconds(
        self,
        striped_read_bytes: float,
        striped_write_bytes: float,
        bytes_per_worker: list[float],
        random_bytes_per_worker: list[float],
        num_workers: int,
    ) -> float:
        """Disk time of one round.

        Striped bytes (HDFS-style even distribution, charged with
        ``worker=None``) move at aggregate sequential bandwidth.
        Worker-attributed bytes cost the *max* over workers — a
        worker writing 10x its share is a straggler the whole round
        waits on. Random bytes pay the random-bandwidth rate, also
        max-over-workers.
        """
        seconds = (striped_read_bytes + striped_write_bytes) / (
            num_workers * self.seq_bandwidth
        )
        if bytes_per_worker:
            skewed = max(bytes_per_worker)
            if skewed:
                seconds += skewed / self.seq_bandwidth
        if random_bytes_per_worker:
            random_skewed = max(random_bytes_per_worker)
            if random_skewed:
                seconds += random_skewed / self.random_bandwidth
        return seconds

    def scaled(self, throughput: float) -> "DiskModel":
        """Divide both bandwidths by a factor."""
        return DiskModel(
            seq_bandwidth=self.seq_bandwidth / throughput,
            random_bandwidth=self.random_bandwidth / throughput,
        )


@dataclass(frozen=True)
class RoundTimes:
    """Per-device seconds the profile derives for one round."""

    compute_seconds: float
    network_transfer_seconds: float
    network_latency_seconds: float
    network_queueing_seconds: float
    disk_seconds: float
    barrier_seconds: float

    @property
    def network_seconds(self) -> float:
        """Total network time (transfer + latency + queueing)."""
        network = self.network_transfer_seconds
        if self.network_latency_seconds:
            network += self.network_latency_seconds
        if self.network_queueing_seconds:
            network += self.network_queueing_seconds
        return network


@dataclass(frozen=True)
class HardwareProfile:
    """A named machine built from component device models."""

    name: str
    cpu: CpuModel
    nic: NicModel
    disk: DiskModel
    #: RAM budget per worker machine, bytes; exceeding it is an OOM.
    memory_bytes_per_worker: float
    #: Compute slowdown per unit of live-set overshoot past
    #: :data:`MEMORY_PRESSURE_THRESHOLD`; zero disables the term.
    memory_pressure_factor: float = 0.0
    #: Cost of one global synchronization barrier, seconds.
    barrier_seconds: float = 0.0
    #: Fixed job submission/scheduling overhead per run, seconds.
    startup_seconds: float = 0.0

    # -- derived physics ------------------------------------------------

    def memory_pressure_multiplier(self, live_memory_bytes: float) -> float:
        """Compute-slowdown factor from a worker's live set size."""
        if not self.memory_pressure_factor or not self.memory_bytes_per_worker:
            return 1.0
        share = live_memory_bytes / self.memory_bytes_per_worker
        if share <= MEMORY_PRESSURE_THRESHOLD:
            return 1.0
        overshoot = min(share, 1.0) - MEMORY_PRESSURE_THRESHOLD
        return 1.0 + self.memory_pressure_factor * (
            overshoot / (1.0 - MEMORY_PRESSURE_THRESHOLD)
        )

    def round_times(
        self,
        charges,
        num_workers: int,
        straggler_penalty_seconds: float = 0.0,
        barrier_override: float | None = None,
    ) -> RoundTimes:
        """Derive one round's per-device seconds from its charges.

        ``charges`` is a :class:`~repro.core.cost.RoundRecord`:
        per-worker ops and random accesses, remote bytes/messages,
        striped and per-worker disk bytes, the live-set high-water
        mark, and the barrier flag. This is the *single* costing
        function — the meter's ``end_round`` and the what-if re-coster
        both call it, so a re-costed profile cannot drift from a fresh
        run.
        """
        compute = max(
            self.cpu.worker_seconds(ops, rand)
            for ops, rand in zip(
                charges.ops_per_worker, charges.random_accesses_per_worker
            )
        )
        pressure = self.memory_pressure_multiplier(charges.live_memory_bytes)
        if pressure != 1.0:
            compute *= pressure
        if straggler_penalty_seconds:
            compute += straggler_penalty_seconds
        transfer, latency = self.nic.service_seconds(
            charges.remote_bytes, charges.remote_messages, num_workers
        )
        queueing = self.nic.queueing_seconds(transfer + latency, compute)
        disk = self.disk.round_seconds(
            charges.striped_disk_read_bytes,
            charges.striped_disk_write_bytes,
            charges.disk_bytes_per_worker,
            charges.disk_random_bytes_per_worker,
            num_workers,
        )
        barrier = (
            barrier_override
            if barrier_override is not None
            else (self.barrier_seconds if charges.barrier else 0.0)
        )
        return RoundTimes(
            compute_seconds=compute,
            network_transfer_seconds=transfer,
            network_latency_seconds=latency,
            network_queueing_seconds=queueing,
            disk_seconds=disk,
            barrier_seconds=barrier,
        )

    # -- transformation -------------------------------------------------

    def scaled(self, throughput: float, memory: float) -> "HardwareProfile":
        """Scale every device's throughput (and the RAM budget) down.

        Latency-like constants (per-message NIC latency, barriers,
        startup) and the dimensionless factors are untouched — they do
        not shrink when data does.
        """
        return replace(
            self,
            cpu=self.cpu.scaled(throughput),
            nic=self.nic.scaled(throughput),
            disk=self.disk.scaled(throughput),
            memory_bytes_per_worker=self.memory_bytes_per_worker / memory,
        )

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """Plain nested dict (JSON-safe; traces embed it)."""
        return {
            "name": self.name,
            "cpu": {
                "cores": self.cpu.cores,
                "ops_per_second": self.cpu.ops_per_second,
                "random_access_seconds": self.cpu.random_access_seconds,
            },
            "nic": {
                "bandwidth": self.nic.bandwidth,
                "message_latency_seconds": self.nic.message_latency_seconds,
                "queueing_factor": self.nic.queueing_factor,
            },
            "disk": {
                "seq_bandwidth": self.disk.seq_bandwidth,
                "random_bandwidth": self.disk.random_bandwidth,
            },
            "memory_bytes_per_worker": self.memory_bytes_per_worker,
            "memory_pressure_factor": self.memory_pressure_factor,
            "barrier_seconds": self.barrier_seconds,
            "startup_seconds": self.startup_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HardwareProfile":
        """Inverse of :meth:`to_dict` (exact float round-trip)."""
        return cls(
            name=data["name"],
            cpu=CpuModel(**data["cpu"]),
            nic=NicModel(**data["nic"]),
            disk=DiskModel(**data["disk"]),
            memory_bytes_per_worker=data["memory_bytes_per_worker"],
            memory_pressure_factor=data.get("memory_pressure_factor", 0.0),
            barrier_seconds=data.get("barrier_seconds", 0.0),
            startup_seconds=data.get("startup_seconds", 0.0),
        )
