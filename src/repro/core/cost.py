"""Simulated-hardware cost model shared by all platform simulations.

The paper benchmarks JVM platforms on a real cluster (Section 3.3: 10
compute machines with 24 GiB RAM and dual Xeon E5620 CPUs for the
distributed platforms; one 192 GiB machine for Neo4j). This
reproduction replaces the testbed with a cost model: every platform
simulation *really executes* its algorithm, and while doing so charges
a :class:`CostMeter` for compute operations, network messages, disk
transfers, random memory accesses, and synchronization barriers. The
meter converts those charges into simulated seconds under a
:class:`ClusterSpec`, and records a per-round :class:`RunProfile` that
the choke-point analysis (Section 2.1) consumes:

* *excessive network utilization* → remote bytes per round;
* *large graph memory footprint* → tracked peak memory per worker,
  with a hard budget whose violation platforms surface as failures
  (Figure 4's missing values);
* *poor access locality* → random accesses charged at cache-miss cost
  versus sequential operations at pipeline cost;
* *skewed execution intensity* → per-worker compute distribution per
  round (time per round is the *maximum* over workers, so stragglers
  dominate, exactly as with real BSP barriers).
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.hardware.models import (
    CpuModel,
    DiskModel,
    HardwareProfile,
    NicModel,
    TimeBreakdown,
)

__all__ = [
    "ClusterSpec",
    "MemoryBudgetExceeded",
    "ROUND_FIELDS",
    "RoundRecord",
    "RunProfile",
    "CostMeter",
]


class MemoryBudgetExceeded(Exception):
    """Raised by the meter when a worker exceeds its memory budget.

    The platform driver API catches this and converts it into a typed
    :class:`~repro.core.errors.SimulatedOOM` so the Benchmark Core
    records a failure instead of crashing. ``round_name`` pins *where*
    the budget broke (e.g. ``superstep-12``); the charge sequence is
    deterministic, so the same configuration breaks at the same round
    with the same message on every run.
    """

    def __init__(
        self, worker: int, used: float, budget: float,
        round_name: str | None = None,
    ):
        self.worker = worker
        self.used = used
        self.budget = budget
        self.round_name = round_name
        where = f" during {round_name}" if round_name else ""
        super().__init__(
            f"worker {worker} needs {used / 2**30:.2f} GiB, "
            f"budget is {budget / 2**30:.2f} GiB{where}"
        )


#: Trailing scale suffix appended by :meth:`ClusterSpec.scaled`.
_SCALE_SUFFIX = re.compile(r"^(?P<base>.*)/s(?P<factor>[0-9.eE+-]+)$")


@dataclass(frozen=True)
class ClusterSpec:
    """The (simulated) machines a platform runs on.

    A deployment shape (``num_workers`` identical machines) bound to a
    :class:`~repro.hardware.models.HardwareProfile` describing each
    machine's devices; cost formulas read the devices through
    ``spec.hardware``.
    """

    name: str
    num_workers: int
    hardware: HardwareProfile

    def __post_init__(self):
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_profile(
        cls,
        profile: HardwareProfile | str,
        num_workers: int | None = None,
        name: str | None = None,
    ) -> "ClusterSpec":
        """A cluster of ``num_workers`` machines of a (named) profile.

        String profiles resolve through the registry, defaulting
        ``num_workers`` to the profile's reference testbed size.
        """
        from repro.hardware.registry import default_workers, get_profile

        if isinstance(profile, str):
            if num_workers is None:
                num_workers = default_workers(profile)
            profile = get_profile(profile)
        elif num_workers is None:
            num_workers = 1
        if name is None:
            name = (
                profile.name
                if num_workers == 1
                else f"{profile.name}/w{num_workers}"
            )
        return cls(name=name, num_workers=num_workers, hardware=profile)

    # -- transformation ---------------------------------------------------

    def scaled(self, throughput: float, memory: float | None = None) -> "ClusterSpec":
        """Scale the testbed down alongside scaled-down graphs.

        Dividing every throughput (CPU, network, disk) and the memory
        budget by the same factor as the graph sizes preserves the
        paper's *relative* platform behaviour while keeping runs cheap:
        simulated times stay comparable to the paper's absolute
        numbers. Latency-like constants (barriers, startup) are left
        untouched — they do not shrink when data does.

        ``memory`` may differ from ``throughput`` so that benchmark
        configurations can place the out-of-memory failure thresholds
        at their scaled graph sizes.

        Repeated scaling composes in the name: ``spec.scaled(2)
        .scaled(2)`` is named ``.../s4``, not ``.../s2/s2``, and
        ``scaled(1)`` round-trips to an equal spec.
        """
        if throughput <= 0:
            raise ValueError("throughput scale must be positive")
        memory = throughput if memory is None else memory
        if memory <= 0:
            raise ValueError("memory scale must be positive")
        base_name, factor = self.name, throughput
        suffix = _SCALE_SUFFIX.match(self.name)
        if suffix:
            try:
                previous = float(suffix.group("factor"))
            except ValueError:
                previous = 0.0
            if previous > 0:
                base_name = suffix.group("base")
                factor = previous * throughput
        name = base_name if factor == 1 else f"{base_name}/s{factor:g}"
        return ClusterSpec(
            name=name,
            num_workers=self.num_workers,
            hardware=self.hardware.scaled(throughput, memory),
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain nested dict (JSON-safe; traces embed it)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        """Inverse of :meth:`to_dict`.

        Also reads the ten flat constants that traces carried before
        specs nested a hardware profile, with that era's physics: no
        per-message latency or queueing, random I/O at the sequential
        rate, no memory pressure.
        """
        if "hardware" in data:
            hardware = HardwareProfile.from_dict(data["hardware"])
        else:
            hardware = HardwareProfile(
                name=data["name"],
                cpu=CpuModel(
                    cores=data["cores_per_worker"],
                    ops_per_second=data["cpu_ops_per_second"],
                    random_access_seconds=data["random_access_seconds"],
                ),
                nic=NicModel(bandwidth=data["network_bandwidth"]),
                disk=DiskModel(
                    seq_bandwidth=data["disk_bandwidth"],
                    random_bandwidth=data["disk_bandwidth"],
                ),
                memory_bytes_per_worker=data["memory_bytes_per_worker"],
                barrier_seconds=data["barrier_seconds"],
                startup_seconds=data["startup_seconds"],
            )
        return cls(data["name"], data["num_workers"], hardware)

    # -- paper testbeds ---------------------------------------------------

    @classmethod
    def paper_distributed(cls) -> "ClusterSpec":
        """The paper's 10-worker cluster (24 GiB, dual Xeon E5620)."""
        return cls.from_profile("paper-1gbe", name="cluster-10")

    @classmethod
    def paper_single_node(cls) -> "ClusterSpec":
        """The paper's Neo4j machine (192 GiB, dual Xeon E5-2450 v2)."""
        return cls.from_profile("paper-single-node", name="single-192g")


@dataclass
class RoundRecord:
    """Charges accumulated during one synchronization round.

    A "round" is a Pregel superstep, a MapReduce job phase, an RDD
    stage, or — for single-node platforms — the whole traversal.

    The declaration order is the round format: trace spans and
    ``profile_fingerprint`` carry the fields in this order, so adding
    or moving a field moves every pinned fingerprint digest.
    """

    name: str
    ops_per_worker: list[float]
    random_accesses_per_worker: list[float]
    local_messages: int = 0
    remote_messages: int = 0
    remote_bytes: float = 0.0
    #: Round totals over *all* disk traffic (striped + attributed);
    #: kept as the stable reporting/trace fields.
    disk_read_bytes: float = 0.0
    disk_write_bytes: float = 0.0
    #: Declared-balanced (``worker=None``) disk bytes, costed at
    #: aggregate sequential bandwidth.
    striped_disk_read_bytes: float = 0.0
    striped_disk_write_bytes: float = 0.0
    #: Worker-attributed sequential disk bytes (read + write); the
    #: round pays the max over workers.
    disk_bytes_per_worker: list[float] = field(default_factory=list)
    #: Worker-attributed seek-dominated bytes, paid at the disk's
    #: random bandwidth.
    disk_random_bytes_per_worker: list[float] = field(default_factory=list)
    #: Live-memory high-water mark across workers when the round
    #: closed (feeds the memory-pressure model).
    live_memory_bytes: float = 0.0
    active_vertices: int = 0
    barrier: bool = True
    compute_seconds: float = 0.0
    network_seconds: float = 0.0
    #: Network breakdown: transfer + latency + queueing sums to
    #: ``network_seconds``.
    network_transfer_seconds: float = 0.0
    network_latency_seconds: float = 0.0
    network_queueing_seconds: float = 0.0
    disk_seconds: float = 0.0
    barrier_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        """Total simulated time of this round."""
        return (
            self.compute_seconds
            + self.network_seconds
            + self.disk_seconds
            + self.barrier_seconds
        )

    @property
    def total_ops(self) -> float:
        """Sequential operations summed over workers."""
        return sum(self.ops_per_worker)


#: :class:`RoundRecord`'s field names in declaration order.
ROUND_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(RoundRecord))


@dataclass
class RunProfile:
    """Everything one algorithm run cost, round by round."""

    cluster: ClusterSpec
    rounds: list[RoundRecord] = field(default_factory=list)
    peak_memory_per_worker: list[float] = field(default_factory=list)
    #: ``launches`` times the profile's startup constant; written only
    #: by :meth:`CostMeter.charge_startup`.
    startup_seconds: float = 0.0
    #: Platform launches and job submissions charged during the run.
    launches: int = 0

    @property
    def simulated_seconds(self) -> float:
        """Total simulated runtime, startup included."""
        return self.startup_seconds + sum(record.seconds for record in self.rounds)

    def breakdown(self) -> TimeBreakdown:
        """The run's seconds by part, summing to :attr:`simulated_seconds`.

        Each round is split by the cluster's
        :meth:`~repro.hardware.models.HardwareProfile.attribute`; the
        startup part is the launches' recorded startup.
        """
        attribute = self.cluster.hardware.attribute
        return sum(
            map(attribute, self.rounds),
            TimeBreakdown(startup=self.startup_seconds),
        )

    @property
    def total_remote_bytes(self) -> float:
        """Network traffic summed over rounds."""
        return sum(record.remote_bytes for record in self.rounds)

    @property
    def total_messages(self) -> int:
        """Messages (local + remote) summed over rounds."""
        return sum(
            record.local_messages + record.remote_messages for record in self.rounds
        )

    @property
    def total_random_accesses(self) -> float:
        """Cache-missing accesses summed over rounds."""
        return sum(
            sum(record.random_accesses_per_worker) for record in self.rounds
        )

    @property
    def peak_memory(self) -> float:
        """Highest per-worker memory peak of the run."""
        return max(self.peak_memory_per_worker, default=0.0)

    @property
    def num_rounds(self) -> int:
        """Number of recorded rounds."""
        return len(self.rounds)


class CostMeter:
    """Accumulates charges and converts them into simulated time.

    Typical engine usage::

        meter = CostMeter(spec)
        meter.charge_startup()
        meter.begin_round("superstep-0")
        meter.charge_compute(worker, ops)
        meter.charge_message(src_worker, dst_worker, payload_bytes)
        meter.end_round(active_vertices=n)
        profile = meter.profile

    Observability: ``sinks`` is a tuple of
    :class:`repro.observability.TraceSink`-shaped observers that
    receive structured events — round begin/end, message/shuffle/
    disk/memory charges, and fault annotations. The contract is
    *zero overhead when no sink is attached*: every emission site is
    guarded by ``if self.sinks`` and sinks never mutate charges, so
    with ``sinks=()`` the charge path is the exact pre-hook code and
    recorded profiles are bit-identical with or without observers
    (enforced by ``tests/observability/``). Per-``charge_compute``
    events are deliberately not emitted — the hot path stays clean and
    round-end spans carry the full per-worker breakdown instead.
    """

    #: Serialized bytes per message envelope on top of the payload.
    MESSAGE_OVERHEAD_BYTES = 16.0

    def __init__(
        self,
        spec: ClusterSpec,
        enforce_memory: bool = True,
        faults=None,
        sinks=(),
    ):
        self.spec = spec
        self.enforce_memory = enforce_memory
        #: Optional :class:`repro.robustness.faults.FaultInjector`; the
        #: meter consults it when rounds open (worker crashes), when
        #: remote messages or shuffles are charged (channel loss), and
        #: when rounds close (straggler slowdown) — which is what makes
        #: fault injection uniform across every engine that charges a
        #: meter.
        self.faults = faults
        #: Attached trace sinks (observe-only; may be empty).
        self.sinks = tuple(sinks) if sinks else ()
        self.profile = RunProfile(
            cluster=spec,
            peak_memory_per_worker=[0.0] * spec.num_workers,
        )
        self._current: RoundRecord | None = None
        self._memory = [0.0] * spec.num_workers

    # -- event emission ---------------------------------------------------

    def _emit_charge(self, kind: str, **fields) -> None:
        round_index = len(self.profile.rounds)
        for sink in self.sinks:
            sink.on_charge(kind, round_index, fields)

    def _emit_fault(self, kind: str, detail: str) -> None:
        for sink in self.sinks:
            sink.on_fault(kind, len(self.profile.rounds), detail)

    def _consult_faults(self, hook, *args) -> None:
        """Call a fault-injector hook, annotating raised faults.

        The injector communicates by raising typed failures; when
        sinks are attached the raised fault is emitted as a trace
        event before it propagates, so traces record *why* a run died.
        """
        try:
            hook(*args)
        except Exception as fault:
            if self.sinks:
                self._emit_fault(
                    getattr(fault, "reason", type(fault).__name__), str(fault)
                )
            raise

    # -- rounds ----------------------------------------------------------

    def charge_startup(self) -> None:
        """One platform launch or job submission.

        The only writer of the profile's startup: it counts the launch
        and records ``launches * startup_seconds``, so re-costing
        multiplies the count by another profile's constant. Platforms
        launch once per run; MapReduce submits once per chained job.
        """
        startup_seconds = self.spec.hardware.startup_seconds
        profile = self.profile
        profile.launches += 1
        profile.startup_seconds = profile.launches * startup_seconds
        if self.sinks:
            self._emit_charge("startup", seconds=startup_seconds)

    @property
    def in_round(self) -> bool:
        """Whether a round is currently open (charges are accepted)."""
        return self._current is not None

    def begin_round(self, name: str, barrier: bool = True) -> None:
        """Open a new round; charges accumulate until end_round."""
        if self._current is not None:
            raise RuntimeError("previous round not ended")
        if self.faults is not None:
            self._consult_faults(
                self.faults.on_round_begin, len(self.profile.rounds)
            )
        if self.sinks:
            index = len(self.profile.rounds)
            for sink in self.sinks:
                sink.on_round_begin(index, name, barrier)
        self._current = RoundRecord(
            name=name,
            ops_per_worker=[0.0] * self.spec.num_workers,
            random_accesses_per_worker=[0.0] * self.spec.num_workers,
            disk_bytes_per_worker=[0.0] * self.spec.num_workers,
            disk_random_bytes_per_worker=[0.0] * self.spec.num_workers,
            barrier=barrier,
        )

    def end_round(
        self, active_vertices: int = 0, barrier_seconds: float | None = None
    ) -> RoundRecord:
        """Close the round, converting charges into simulated time.

        ``barrier_seconds`` overrides the cluster's barrier cost for
        this round (e.g. a GPU kernel launch + host sync standing in
        for a cluster-wide barrier). Overriding here — rather than
        patching the returned record — keeps the closed record
        immutable, which the trace sinks rely on: the emitted span is
        the final word on the round. The quality gate's
        ``cost-protocol`` rule enforces this statically: writes to a
        record obtained from ``end_round`` are findings.
        """
        record = self._require_round()
        spec = self.spec
        record.active_vertices = active_vertices
        record.live_memory_bytes = max(self._memory)
        straggler_penalty = 0.0
        if self.faults is not None:
            # An injected straggler repeats the round's barrier
            # physics: the slowest worker extends the whole round.
            straggler_penalty = self.faults.straggler_penalty_seconds(
                record.ops_per_worker,
                record.random_accesses_per_worker,
                spec.hardware.cpu.worker_ops_per_second,
                spec.hardware.cpu.random_access_seconds,
            )
        # All per-round seconds derive from the active hardware
        # profile; see HardwareProfile.round_times for the physics
        # (BSP max-over-workers compute, NIC transfer + per-message
        # latency + queueing, striped/attributed/random disk). The
        # what-if re-coster calls the same function on the recorded
        # charges, so re-costed profiles cannot drift from fresh runs.
        times = spec.hardware.round_times(
            record,
            spec.num_workers,
            straggler_penalty_seconds=straggler_penalty,
            barrier_override=barrier_seconds,
        )
        record.compute_seconds = times.compute_seconds
        record.network_transfer_seconds = times.network_transfer_seconds
        record.network_latency_seconds = times.network_latency_seconds
        record.network_queueing_seconds = times.network_queueing_seconds
        record.network_seconds = times.network_seconds
        record.disk_seconds = times.disk_seconds
        record.barrier_seconds = times.barrier_seconds
        self.profile.rounds.append(record)
        self._current = None
        if self.sinks:
            index = len(self.profile.rounds) - 1
            for sink in self.sinks:
                sink.on_round_end(index, record, straggler_penalty)
        return record

    def _require_round(self) -> RoundRecord:
        if self._current is None:
            raise RuntimeError("no round in progress; call begin_round first")
        return self._current

    # -- charges ---------------------------------------------------------

    def charge_compute(self, worker: int, ops: float) -> None:
        """Sequential/pipelined work (edge scans, message handling)."""
        self._require_round().ops_per_worker[worker] += ops

    def charge_random_access(self, worker: int, count: float) -> None:
        """Cache-missing accesses (pointer chasing, hash probes)."""
        self._require_round().random_accesses_per_worker[worker] += count

    def charge_worker_compute(
        self, ops: np.ndarray, random_accesses: np.ndarray | None = None
    ) -> None:
        """Per-worker op tallies (and random-access tallies), one entry
        per worker: the vector form of :meth:`charge_compute` and
        :meth:`charge_random_access`.

        Each non-zero entry is added to its worker as a Python float.
        All charges in this codebase are integer-valued (operation
        counts, access counts), and float64 addition of integers below
        2**53 is exact, so one pre-summed tally is bit-identical to
        the scalar call sequence it replaces. Bulk engine paths rely
        on that exactness; see ``tests/core/test_cost.py``.
        """
        record = self._require_round()
        for worker in np.flatnonzero(ops).tolist():
            record.ops_per_worker[worker] += float(ops[worker])
        if random_accesses is not None:
            tallies = record.random_accesses_per_worker
            for worker in np.flatnonzero(random_accesses).tolist():
                tallies[worker] += float(random_accesses[worker])

    def charge_worker_messages(
        self,
        src_workers: np.ndarray,
        dst_workers: np.ndarray,
        payload_bytes: float,
    ) -> None:
        """One message per ``(src_workers[i], dst_workers[i])`` element,
        all with the same payload size.

        Tallies the elements per worker pair and makes one
        :meth:`charge_message` call with ``count=`` per non-zero pair,
        in ascending ``src * num_workers + dst`` order. Sinks and the
        fault injector therefore see the events, and draw the random
        numbers, of that per-pair loop.
        """
        self._require_round()
        num_workers = self.spec.num_workers
        pair_counts = np.bincount(
            src_workers * num_workers + dst_workers,
            minlength=num_workers * num_workers,
        )
        for pair in np.flatnonzero(pair_counts).tolist():
            src_worker, dst_worker = divmod(pair, num_workers)
            self.charge_message(
                src_worker, dst_worker, payload_bytes,
                count=int(pair_counts[pair]),
            )

    def charge_message(
        self, src_worker: int, dst_worker: int, payload_bytes: float, count: int = 1
    ) -> None:
        """A message between workers; local delivery costs no network."""
        record = self._require_round()
        if src_worker == dst_worker:
            record.local_messages += count
        else:
            if self.faults is not None:
                self._consult_faults(
                    self.faults.on_messages,
                    src_worker, dst_worker, len(self.profile.rounds), count,
                )
            record.remote_messages += count
            record.remote_bytes += count * (payload_bytes + self.MESSAGE_OVERHEAD_BYTES)
        if self.sinks:
            self._emit_charge(
                "message",
                src_worker=src_worker,
                dst_worker=dst_worker,
                count=count,
                payload_bytes=payload_bytes,
            )

    def charge_shuffle(self, num_bytes: float, count: int = 0) -> None:
        """Bulk data redistribution between workers (MapReduce shuffle,
        RDD wide dependency). The bytes are charged as remote traffic
        without per-message envelopes — engines that shuffle serialize
        in bulk.

        Shuffle traffic crosses worker boundaries exactly like
        per-message remote delivery, so it consults the fault
        injector's channel-loss decision too — ``--inject`` message
        loss is uniform across BSP messaging *and* MapReduce/dataflow/
        RDD shuffles. Empty shuffles (no bytes) and single-worker
        clusters stay on the lossless local path: with one worker
        nothing crosses a machine boundary, so the records count as
        local messages and no remote traffic is charged (mirroring
        ``charge_message`` with ``src == dst``).
        """
        record = self._require_round()
        if self.spec.num_workers == 1:
            record.local_messages += count
        else:
            if self.faults is not None and num_bytes:
                # Byte-only shuffles (count=0) still move at least one
                # record's worth of remote traffic for the loss decision.
                self._consult_faults(
                    self.faults.on_messages,
                    0, 1, len(self.profile.rounds), max(count, 1),
                )
            record.remote_messages += count
            record.remote_bytes += num_bytes
        if self.sinks:
            self._emit_charge("shuffle", num_bytes=num_bytes, count=count)

    def charge_disk_read(self, worker: int | None, num_bytes: float) -> None:
        """Bytes read from disk during this round.

        ``worker=None`` declares evenly striped I/O (HDFS-style block
        placement), costed at the cluster's aggregate sequential
        bandwidth. An integer attributes the bytes to that worker;
        worker-attributed disk time is max-over-workers in
        ``end_round``, so skewed I/O creates a straggler exactly like
        skewed compute.
        """
        record = self._require_round()
        record.disk_read_bytes += num_bytes
        if worker is None:
            record.striped_disk_read_bytes += num_bytes
        else:
            record.disk_bytes_per_worker[worker] += num_bytes
        if self.sinks:
            self._emit_charge("disk-read", worker=worker, num_bytes=num_bytes)

    def charge_disk_write(self, worker: int | None, num_bytes: float) -> None:
        """Bytes written to disk during this round.

        Same worker semantics as :meth:`charge_disk_read`.
        """
        record = self._require_round()
        record.disk_write_bytes += num_bytes
        if worker is None:
            record.striped_disk_write_bytes += num_bytes
        else:
            record.disk_bytes_per_worker[worker] += num_bytes
        if self.sinks:
            self._emit_charge("disk-write", worker=worker, num_bytes=num_bytes)

    def charge_disk_random(
        self, worker: int, num_bytes: float, write: bool = False
    ) -> None:
        """Seek-dominated I/O, paid at the disk's *random* bandwidth.

        Always worker-attributed (seek storms are inherently local to
        one spindle); the bytes also land in the round's read/write
        totals so traces and reports see all disk traffic.
        """
        record = self._require_round()
        if write:
            record.disk_write_bytes += num_bytes
        else:
            record.disk_read_bytes += num_bytes
        record.disk_random_bytes_per_worker[worker] += num_bytes
        if self.sinks:
            self._emit_charge(
                "disk-random", worker=worker, num_bytes=num_bytes, write=write
            )

    # -- memory ----------------------------------------------------------

    def allocate_memory(self, worker: int, num_bytes: float) -> None:
        """Raise the worker's live memory; raises on budget violation."""
        self._memory[worker] += num_bytes
        peak = self.profile.peak_memory_per_worker
        peak[worker] = max(peak[worker], self._memory[worker])
        if self.sinks:
            self._emit_charge(
                "memory",
                worker=worker,
                delta_bytes=num_bytes,
                in_use_bytes=self._memory[worker],
            )
        budget = self.spec.hardware.memory_bytes_per_worker
        if self.enforce_memory and self._memory[worker] > budget:
            budget_violation = MemoryBudgetExceeded(
                worker,
                self._memory[worker],
                budget,
                round_name=self._current.name if self._current else None,
            )
            if self.sinks:
                self._emit_fault("out-of-memory", str(budget_violation))
            raise budget_violation

    def release_memory(self, worker: int, num_bytes: float) -> None:
        """Lower the worker's live memory (floors at zero)."""
        self._memory[worker] = max(0.0, self._memory[worker] - num_bytes)
        if self.sinks:
            self._emit_charge(
                "memory",
                worker=worker,
                delta_bytes=-num_bytes,
                in_use_bytes=self._memory[worker],
            )

    def memory_in_use(self, worker: int) -> float:
        """The worker's current live memory in bytes."""
        return self._memory[worker]
