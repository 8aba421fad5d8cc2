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

:meth:`HardwareProfile.attribute` splits a costed round back into a
:class:`TimeBreakdown` whose parts sum to the round's seconds; every
choke-point label and time share reads that one split.

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

from dataclasses import asdict, dataclass, replace

__all__ = [
    "CpuModel",
    "NicModel",
    "DiskModel",
    "HardwareProfile",
    "PART_LEGEND",
    "PART_LETTERS",
    "RoundTimes",
    "TimeBreakdown",
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


#: One-letter label of each :class:`TimeBreakdown` part, in field order
#: (which also breaks ties): startup is the run's fixed overhead, ``F``.
PART_LETTERS = {
    "compute": "C",
    "locality": "L",
    "skew": "S",
    "memory": "M",
    "network": "N",
    "disk": "D",
    "barrier": "B",
    "startup": "F",
}

#: The letters spelled out, for report and sweep legends.
PART_LEGEND = " ".join(
    f"{letter}={name}" for name, letter in PART_LETTERS.items()
)


@dataclass(frozen=True)
class TimeBreakdown:
    """Simulated seconds split into parts that sum to the total.

    A round's parts come from :meth:`HardwareProfile.attribute`; a
    run's breakdown (:meth:`repro.core.cost.RunProfile.breakdown`)
    adds up its rounds plus its launches' startup. Choke-point
    letters, time shares, skew ratios and what-if cells all read this
    one split.
    """

    #: The mean worker's sequential operations.
    compute: float = 0.0
    #: The mean worker's cache-missing random accesses.
    locality: float = 0.0
    #: The busiest worker's lead over the mean worker, plus any
    #: injected straggler penalty.
    skew: float = 0.0
    #: The memory-pressure surcharge on the busiest worker.
    memory: float = 0.0
    #: NIC transfer, per-message latency and queueing.
    network: float = 0.0
    disk: float = 0.0
    barrier: float = 0.0
    #: Launches times the profile's startup constant (runs only).
    startup: float = 0.0

    def parts(self) -> dict[str, float]:
        """Seconds per part name, in :data:`PART_LETTERS` order."""
        return {name: getattr(self, name) for name in PART_LETTERS}

    @property
    def seconds(self) -> float:
        """The parts' sum: the round's or run's simulated seconds."""
        return sum(self.parts().values())

    def __add__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        return TimeBreakdown(
            compute=self.compute + other.compute,
            locality=self.locality + other.locality,
            skew=self.skew + other.skew,
            memory=self.memory + other.memory,
            network=self.network + other.network,
            disk=self.disk + other.disk,
            barrier=self.barrier + other.barrier,
            startup=self.startup + other.startup,
        )

    def share(self, part: str) -> float:
        """One part's fraction of the total (0.0 for an empty total)."""
        total = self.seconds
        return getattr(self, part) / total if total else 0.0

    def dominant(self) -> str:
        """The largest part's name (the earliest part wins ties)."""
        parts = self.parts()
        return max(parts, key=parts.get)

    def dominant_letter(self) -> str:
        """One-letter label of :meth:`dominant` for matrix cells."""
        return PART_LETTERS[self.dominant()]

    @property
    def worker_skew(self) -> float:
        """Busiest over mean worker busy time; 1.0 is balanced."""
        mean = self.compute + self.locality
        return (mean + self.skew) / mean if mean > 0 else 1.0

    def describe(self) -> str:
        """Letters with their shares, largest first (zero parts omitted)."""
        total = self.seconds
        ranked = sorted(
            (part for part in self.parts().items() if part[1] > 0),
            key=lambda part: -part[1],
        )
        return " ".join(
            f"{PART_LETTERS[name]}={seconds / total:.1%}"
            for name, seconds in ranked
        )


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

    def attribute(self, record) -> TimeBreakdown:
        """Split one costed round into parts that sum to its seconds.

        Reads only ``record``'s charges and derived seconds plus this
        profile's CPU and memory-pressure physics, so a trace span and
        its run's cluster yield the same split as the live record. The
        mean worker's ops are ``compute`` and its random accesses
        ``locality``; the busiest worker's pressure surcharge is
        ``memory``; the rest of the recorded compute seconds, which is
        the busiest worker's lead plus any straggler penalty, is
        ``skew``. Network, disk and barrier seconds pass through.
        """
        cpu = self.cpu
        ops = record.ops_per_worker
        accesses = record.random_accesses_per_worker
        compute = cpu.worker_seconds(sum(ops) / len(ops), 0.0)
        locality = cpu.worker_seconds(0.0, sum(accesses) / len(accesses))
        pressure = self.memory_pressure_multiplier(record.live_memory_bytes)
        memory = 0.0
        if pressure != 1.0:
            busiest = max(map(cpu.worker_seconds, ops, accesses))
            memory = busiest * (pressure - 1.0)
        return TimeBreakdown(
            compute=compute,
            locality=locality,
            skew=record.compute_seconds - compute - locality - memory,
            memory=memory,
            network=record.network_seconds,
            disk=record.disk_seconds,
            barrier=record.barrier_seconds,
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
        return asdict(self)

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
