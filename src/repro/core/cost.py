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

import dataclasses
import re
from dataclasses import dataclass, field

import numpy as np

from repro.hardware.models import CpuModel, DiskModel, HardwareProfile, NicModel

__all__ = [
    "ClusterSpec",
    "MemoryBudgetExceeded",
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


#: Flat spec field -> (hardware sub-model attribute, model field name);
#: sub-model ``None`` means a direct :class:`HardwareProfile` field.
_FLAT_HARDWARE_FIELDS: dict[str, tuple[str | None, str]] = {
    "cores_per_worker": ("cpu", "cores"),
    "cpu_ops_per_second": ("cpu", "ops_per_second"),
    "random_access_seconds": ("cpu", "random_access_seconds"),
    "network_bandwidth": ("nic", "bandwidth"),
    "nic_message_latency_seconds": ("nic", "message_latency_seconds"),
    "nic_queueing_factor": ("nic", "queueing_factor"),
    "disk_bandwidth": ("disk", "seq_bandwidth"),
    "disk_random_bandwidth": ("disk", "random_bandwidth"),
    "memory_bytes_per_worker": (None, "memory_bytes_per_worker"),
    "memory_pressure_factor": (None, "memory_pressure_factor"),
    "barrier_seconds": (None, "barrier_seconds"),
    "startup_seconds": (None, "startup_seconds"),
}

#: Trailing scale suffix appended by :meth:`ClusterSpec.scaled`.
_SCALE_SUFFIX = re.compile(r"^(?P<base>.*)/s(?P<factor>[0-9.eE+-]+)$")


@dataclass(frozen=True)
class ClusterSpec:
    """The (simulated) machines a platform runs on.

    A deployment shape (``num_workers`` identical machines) bound to a
    :class:`~repro.hardware.models.HardwareProfile` describing each
    machine's devices. The historical flat constants
    (``cpu_ops_per_second``, ``network_bandwidth``, ...) remain
    available as read-only properties delegating into the profile, so
    cost formulas and engine code read exactly as before; construction
    sites that used the flat field list use :meth:`flat`, and
    field-level overrides go through :meth:`replace`.
    """

    name: str
    num_workers: int
    hardware: HardwareProfile

    def __post_init__(self):
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")

    # -- legacy flat views ------------------------------------------------

    @property
    def cores_per_worker(self) -> int:
        """Cores used per machine."""
        return self.hardware.cpu.cores

    @property
    def cpu_ops_per_second(self) -> float:
        """Simple-operation throughput per core."""
        return self.hardware.cpu.ops_per_second

    @property
    def random_access_seconds(self) -> float:
        """Cost of one cache-missing random memory access."""
        return self.hardware.cpu.random_access_seconds

    @property
    def memory_bytes_per_worker(self) -> float:
        """RAM budget per machine; exceeding it is a platform failure."""
        return self.hardware.memory_bytes_per_worker

    @property
    def network_bandwidth(self) -> float:
        """Per-machine network bandwidth, bytes/second."""
        return self.hardware.nic.bandwidth

    @property
    def barrier_seconds(self) -> float:
        """Cost of one global synchronization barrier."""
        return self.hardware.barrier_seconds

    @property
    def disk_bandwidth(self) -> float:
        """Per-machine sequential disk bandwidth, bytes/second."""
        return self.hardware.disk.seq_bandwidth

    @property
    def startup_seconds(self) -> float:
        """Fixed job submission/scheduling overhead per run."""
        return self.hardware.startup_seconds

    @property
    def worker_ops_per_second(self) -> float:
        """Aggregate simple-operation throughput of one worker."""
        return self.hardware.cpu.worker_ops_per_second

    # -- construction -----------------------------------------------------

    @classmethod
    def flat(
        cls,
        name: str,
        num_workers: int,
        cores_per_worker: int,
        cpu_ops_per_second: float,
        random_access_seconds: float,
        memory_bytes_per_worker: float,
        network_bandwidth: float,
        barrier_seconds: float,
        disk_bandwidth: float,
        startup_seconds: float,
        nic_message_latency_seconds: float = 0.0,
        nic_queueing_factor: float = 0.0,
        disk_random_bandwidth: float | None = None,
        memory_pressure_factor: float = 0.0,
    ) -> "ClusterSpec":
        """Build a spec from the historical flat constant list.

        The positional order matches the pre-profile ``ClusterSpec``
        fields; the keyword tail exposes the new component parameters
        (defaults reproduce the old physics: no per-message latency,
        no queueing, random I/O at sequential rate, no memory
        pressure).
        """
        hardware = HardwareProfile(
            name=name,
            cpu=CpuModel(
                cores=cores_per_worker,
                ops_per_second=cpu_ops_per_second,
                random_access_seconds=random_access_seconds,
            ),
            nic=NicModel(
                bandwidth=network_bandwidth,
                message_latency_seconds=nic_message_latency_seconds,
                queueing_factor=nic_queueing_factor,
            ),
            disk=DiskModel(
                seq_bandwidth=disk_bandwidth,
                random_bandwidth=(
                    disk_bandwidth
                    if disk_random_bandwidth is None
                    else disk_random_bandwidth
                ),
            ),
            memory_bytes_per_worker=memory_bytes_per_worker,
            memory_pressure_factor=memory_pressure_factor,
            barrier_seconds=barrier_seconds,
            startup_seconds=startup_seconds,
        )
        return cls(name=name, num_workers=num_workers, hardware=hardware)

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

    def replace(self, **changes) -> "ClusterSpec":
        """`dataclasses.replace` that also accepts flat field names.

        ``spec.replace(memory_bytes_per_worker=2048.0)`` routes the
        override into the nested hardware profile; ``name``,
        ``num_workers`` and ``hardware`` replace directly.
        """
        name = changes.pop("name", self.name)
        num_workers = changes.pop("num_workers", self.num_workers)
        hardware = changes.pop("hardware", self.hardware)
        if changes:
            grouped: dict[str | None, dict[str, object]] = {}
            for key, value in changes.items():
                if key not in _FLAT_HARDWARE_FIELDS:
                    raise TypeError(f"unknown ClusterSpec field {key!r}")
                model, attribute = _FLAT_HARDWARE_FIELDS[key]
                grouped.setdefault(model, {})[attribute] = value
            profile_changes = grouped.pop(None, {})
            for model, model_changes in grouped.items():
                profile_changes[model] = dataclasses.replace(
                    getattr(hardware, model), **model_changes
                )
            hardware = dataclasses.replace(hardware, **profile_changes)
        return ClusterSpec(
            name=name, num_workers=num_workers, hardware=hardware
        )

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
        return {
            "name": self.name,
            "num_workers": self.num_workers,
            "hardware": self.hardware.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        """Inverse of :meth:`to_dict`; accepts legacy flat dicts too."""
        if "hardware" in data:
            return cls(
                name=data["name"],
                num_workers=data["num_workers"],
                hardware=HardwareProfile.from_dict(data["hardware"]),
            )
        return cls.flat(**data)

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
    active_vertices: int = 0
    barrier: bool = True
    #: Live-memory high-water mark across workers when the round
    #: closed (feeds the memory-pressure model).
    live_memory_bytes: float = 0.0
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

    @property
    def skew(self) -> float:
        """max/mean per-worker compute — 1.0 is perfectly balanced."""
        total = self.total_ops + sum(self.random_accesses_per_worker)
        workers = len(self.ops_per_worker)
        if total == 0 or workers == 0:
            return 1.0
        per_worker = [
            ops + rand
            for ops, rand in zip(self.ops_per_worker, self.random_accesses_per_worker)
        ]
        mean = total / workers
        return max(per_worker) / mean if mean > 0 else 1.0


@dataclass
class RunProfile:
    """Everything one algorithm run cost, round by round."""

    cluster: ClusterSpec
    rounds: list[RoundRecord] = field(default_factory=list)
    peak_memory_per_worker: list[float] = field(default_factory=list)
    startup_seconds: float = 0.0

    @property
    def simulated_seconds(self) -> float:
        """Total simulated runtime, startup included."""
        return self.startup_seconds + sum(record.seconds for record in self.rounds)

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
        """Fixed job-submission overhead (charged once per run)."""
        self.profile.startup_seconds += self.spec.startup_seconds
        if self.sinks:
            self._emit_charge("startup", seconds=self.spec.startup_seconds)

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
                spec.worker_ops_per_second,
                spec.random_access_seconds,
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
        if self.enforce_memory and self._memory[worker] > self.spec.memory_bytes_per_worker:
            budget_violation = MemoryBudgetExceeded(
                worker,
                self._memory[worker],
                self.spec.memory_bytes_per_worker,
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
