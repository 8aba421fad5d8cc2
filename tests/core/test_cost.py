"""Unit tests for the cost model (ClusterSpec, CostMeter, RunProfile)."""

import numpy as np
import pytest

from repro.core.cost import ClusterSpec, CostMeter, MemoryBudgetExceeded
from repro.observability import TraceSink
from repro.robustness.errors import SimulatedMessageLoss
from repro.robustness.faults import FaultInjector, FaultPlan


class TestClusterSpec:
    def test_paper_specs(self):
        distributed = ClusterSpec.paper_distributed()
        assert distributed.num_workers == 10
        assert distributed.memory_bytes_per_worker == 24 * 2 ** 30
        single = ClusterSpec.paper_single_node()
        assert single.num_workers == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec.flat("x", 0, 1, 1.0, 1e-7, 1.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ClusterSpec.flat("x", 1, 0, 1.0, 1e-7, 1.0, 1.0, 0.0, 1.0, 0.0)

    def test_scaled_divides_throughputs(self):
        base = ClusterSpec.paper_distributed()
        scaled = base.scaled(4.0)
        assert scaled.cpu_ops_per_second == base.cpu_ops_per_second / 4
        assert scaled.network_bandwidth == base.network_bandwidth / 4
        assert scaled.disk_bandwidth == base.disk_bandwidth / 4
        assert scaled.memory_bytes_per_worker == base.memory_bytes_per_worker / 4
        # Random-access latency grows when throughput shrinks.
        assert scaled.random_access_seconds == base.random_access_seconds * 4
        # Latency constants are untouched.
        assert scaled.barrier_seconds == base.barrier_seconds
        assert scaled.startup_seconds == base.startup_seconds

    def test_scaled_memory_independent(self):
        base = ClusterSpec.paper_distributed()
        scaled = base.scaled(4.0, memory=16.0)
        assert scaled.memory_bytes_per_worker == base.memory_bytes_per_worker / 16

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec.paper_distributed().scaled(0)
        with pytest.raises(ValueError):
            ClusterSpec.paper_distributed().scaled(2, memory=-1)


class TestCostMeter:
    def test_round_lifecycle(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.begin_round("r0")
        meter.charge_compute(0, 1000)
        record = meter.end_round(active_vertices=5)
        assert record.name == "r0"
        assert record.active_vertices == 5
        assert record.seconds > 0
        assert meter.profile.num_rounds == 1

    def test_nested_round_rejected(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.begin_round("a")
        with pytest.raises(RuntimeError):
            meter.begin_round("b")

    def test_charge_outside_round_rejected(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        with pytest.raises(RuntimeError):
            meter.charge_compute(0, 1)

    def test_compute_time_is_max_over_workers(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.begin_round("balanced")
        for worker in range(cluster_spec.num_workers):
            meter.charge_compute(worker, 1e6)
        balanced = meter.end_round()
        meter.begin_round("skewed")
        meter.charge_compute(0, 1e6 * cluster_spec.num_workers)
        skewed = meter.end_round()
        # Same total work; the skewed round takes ~num_workers longer.
        assert skewed.compute_seconds == pytest.approx(
            balanced.compute_seconds * cluster_spec.num_workers
        )
        assert skewed.skew == pytest.approx(cluster_spec.num_workers)
        assert balanced.skew == pytest.approx(1.0)

    def test_local_messages_cost_no_network(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.begin_round("msgs")
        meter.charge_message(0, 0, 8.0)
        meter.charge_message(0, 1, 8.0)
        record = meter.end_round()
        assert record.local_messages == 1
        assert record.remote_messages == 1
        assert record.remote_bytes == 8.0 + CostMeter.MESSAGE_OVERHEAD_BYTES
        assert record.network_seconds > 0

    def test_shuffle_bulk_charge(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.begin_round("shuffle")
        meter.charge_shuffle(1e6, count=100)
        record = meter.end_round()
        assert record.remote_bytes == 1e6
        assert record.remote_messages == 100

    def test_barrier_seconds(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.begin_round("with-barrier")
        with_barrier = meter.end_round()
        meter.begin_round("no-barrier", barrier=False)
        without = meter.end_round()
        assert with_barrier.barrier_seconds == cluster_spec.barrier_seconds
        assert without.barrier_seconds == 0.0

    def test_startup(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.charge_startup()
        assert meter.profile.startup_seconds == cluster_spec.startup_seconds
        assert meter.profile.simulated_seconds == cluster_spec.startup_seconds

    def test_random_access_slower_than_sequential(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.begin_round("sequential")
        meter.charge_compute(0, 1e6)
        sequential = meter.end_round()
        meter.begin_round("random")
        meter.charge_random_access(0, 1e6)
        random = meter.end_round()
        assert random.compute_seconds > sequential.compute_seconds


class TestMemoryTracking:
    def test_peak_tracked(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.allocate_memory(0, 1000)
        meter.allocate_memory(0, 500)
        meter.release_memory(0, 800)
        meter.allocate_memory(0, 100)
        assert meter.profile.peak_memory_per_worker[0] == 1500
        assert meter.memory_in_use(0) == 800

    def test_budget_enforced(self, tiny_memory_spec):
        meter = CostMeter(tiny_memory_spec)
        meter.allocate_memory(0, 2048)
        with pytest.raises(MemoryBudgetExceeded) as info:
            meter.allocate_memory(0, 1)
        assert info.value.worker == 0

    def test_enforcement_optional(self, tiny_memory_spec):
        meter = CostMeter(tiny_memory_spec, enforce_memory=False)
        meter.allocate_memory(0, 10 * 2048)
        assert meter.profile.peak_memory == 10 * 2048

    def test_release_floors_at_zero(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.release_memory(0, 1000)
        assert meter.memory_in_use(0) == 0.0


class _RecordingSink(TraceSink):
    """Keeps every charge and fault event, in emission order."""

    def __init__(self):
        self.events = []

    def on_charge(self, kind, round_index, fields):
        self.events.append(("charge", kind, round_index, fields))

    def on_fault(self, kind, round_index, detail):
        self.events.append(("fault", kind, round_index, detail))


def _message_arrays(num_workers, seed, size=400):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, num_workers, size=size),
        rng.integers(0, num_workers, size=size),
    )


def _charge_pairs_in_a_loop(meter, src_workers, dst_workers, payload):
    """The per-pair ``charge_message`` loop the vector entry replaces."""
    counts = {}
    for pair in zip(src_workers.tolist(), dst_workers.tolist()):
        counts[pair] = counts.get(pair, 0) + 1
    for (src, dst), count in sorted(counts.items()):
        meter.charge_message(src, dst, payload, count=count)


class TestBulkCharges:
    """Vector charges must be *exactly* equivalent to scalar sequences.

    This invariant is what lets the vectorized engine paths claim
    bit-identical cost profiles (ISSUE 2 tentpole part 1).
    """

    def _scalar_round(self, meter):
        meter.begin_round("scalar")
        for _ in range(137):
            meter.charge_compute(0, 3)
        for _ in range(41):
            meter.charge_random_access(0, 2)
        for _ in range(29):
            meter.charge_message(1, 2, 8.0)
        for _ in range(17):
            meter.charge_message(2, 2, 8.0)
        return meter.end_round(active_vertices=137)

    def _bulk_round(self, meter):
        meter.begin_round("bulk")
        ops = np.zeros(meter.spec.num_workers, dtype=np.int64)
        ops[0] = 137 * 3
        accesses = np.zeros(meter.spec.num_workers, dtype=np.int64)
        accesses[0] = 41 * 2
        meter.charge_worker_compute(ops, random_accesses=accesses)
        meter.charge_worker_messages(
            np.array([2] * 17 + [1] * 29), np.full(46, 2), 8.0
        )
        return meter.end_round(active_vertices=137)

    def test_bulk_round_equals_scalar_round_exactly(self, cluster_spec):
        scalar = self._scalar_round(CostMeter(cluster_spec))
        bulk = self._bulk_round(CostMeter(cluster_spec))
        assert bulk.ops_per_worker == scalar.ops_per_worker
        assert (
            bulk.random_accesses_per_worker == scalar.random_accesses_per_worker
        )
        assert bulk.local_messages == scalar.local_messages
        assert bulk.remote_messages == scalar.remote_messages
        assert bulk.remote_bytes == scalar.remote_bytes
        # Exact equality, not approx: derived seconds match bit-for-bit.
        assert bulk.seconds == scalar.seconds
        assert bulk.compute_seconds == scalar.compute_seconds
        assert bulk.network_seconds == scalar.network_seconds

    def test_bulk_profile_equals_scalar_profile(self, cluster_spec):
        scalar_meter = CostMeter(cluster_spec)
        bulk_meter = CostMeter(cluster_spec)
        self._scalar_round(scalar_meter)
        self._bulk_round(bulk_meter)
        scalar, bulk = scalar_meter.profile, bulk_meter.profile
        assert bulk.simulated_seconds == scalar.simulated_seconds
        assert bulk.total_messages == scalar.total_messages
        assert bulk.total_remote_bytes == scalar.total_remote_bytes
        assert bulk.total_random_accesses == scalar.total_random_accesses

    def test_local_bulk_messages_cost_no_network(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.begin_round("local")
        meter.charge_worker_messages(np.full(12, 3), np.full(12, 3), 8.0)
        record = meter.end_round()
        assert record.local_messages == 12
        assert record.remote_messages == 0
        assert record.remote_bytes == 0.0

    def test_bulk_charge_outside_round_rejected(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        with pytest.raises(RuntimeError):
            meter.charge_worker_compute(np.ones(cluster_spec.num_workers))
        with pytest.raises(RuntimeError):
            meter.charge_worker_messages(np.array([0, 0]), np.array([1, 1]), 8.0)

    def test_vector_messages_emit_the_per_pair_loop_events(self, cluster_spec):
        src, dst = _message_arrays(cluster_spec.num_workers, seed=5)
        vector_sink, loop_sink = _RecordingSink(), _RecordingSink()
        vector = CostMeter(cluster_spec, sinks=(vector_sink,))
        vector.begin_round("messages")
        vector.charge_worker_messages(src, dst, 8.0)
        loop = CostMeter(cluster_spec, sinks=(loop_sink,))
        loop.begin_round("messages")
        _charge_pairs_in_a_loop(loop, src, dst, 8.0)
        assert vector_sink.events == loop_sink.events
        # Plain Python numbers, so serialized traces match too.
        assert all(
            type(fields["count"]) is int and type(fields["src_worker"]) is int
            for _event, _kind, _round, fields in vector_sink.events
        )
        assert vector.end_round() == loop.end_round()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_vector_messages_lose_the_same_pair_as_the_loop(
        self, cluster_spec, seed
    ):
        plan = FaultPlan(message_loss_rate=0.01, seed=seed)
        src, dst = _message_arrays(cluster_spec.num_workers, seed=seed)
        losses, sinks = [], []
        for charge in (
            lambda meter: meter.charge_worker_messages(src, dst, 8.0),
            lambda meter: _charge_pairs_in_a_loop(meter, src, dst, 8.0),
        ):
            injector = FaultInjector(plan, "giraph")
            injector.begin_attempt()
            sink = _RecordingSink()
            meter = CostMeter(cluster_spec, faults=injector, sinks=(sink,))
            meter.begin_round("lossy")
            with pytest.raises(SimulatedMessageLoss) as loss:
                charge(meter)
            losses.append((loss.value.src_worker, loss.value.dst_worker))
            sinks.append(sink.events)
        assert losses[0] == losses[1]
        assert sinks[0] == sinks[1]


class TestRunProfile:
    def test_aggregates(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        for index in range(3):
            meter.begin_round(f"r{index}")
            meter.charge_compute(0, 100)
            meter.charge_message(0, 1, 8.0)
            meter.charge_random_access(1, 10)
            meter.end_round(active_vertices=10 - index)
        profile = meter.profile
        assert profile.num_rounds == 3
        assert profile.total_messages == 3
        assert profile.total_random_accesses == 30
        assert profile.total_remote_bytes == 3 * (8.0 + CostMeter.MESSAGE_OVERHEAD_BYTES)
        assert profile.simulated_seconds == pytest.approx(
            sum(r.seconds for r in profile.rounds)
        )


class TestScaledNaming:
    def test_repeated_scaling_composes_in_the_name(self):
        base = ClusterSpec.paper_distributed()
        twice = base.scaled(2.0).scaled(2.0)
        assert twice.name == f"{base.name}/s4"
        # And the physics composes with the name.
        assert twice.cpu_ops_per_second == base.cpu_ops_per_second / 4

    def test_scaled_identity_round_trips(self):
        base = ClusterSpec.paper_distributed()
        assert base.scaled(1.0) == base
        # Identity after a real scaling keeps the composed name too.
        assert base.scaled(2.0).scaled(1.0) == base.scaled(2.0)

    def test_fractional_factors_compose(self):
        base = ClusterSpec.paper_distributed()
        assert base.scaled(4.0).scaled(0.5).name == f"{base.name}/s2"
        # Scaling back to 1x drops the suffix entirely.
        assert base.scaled(4.0).scaled(0.25).name == base.name


class TestHardwarePhysicsFixes:
    """Dedicated tests for the three cost-model physics fixes.

    Each pins the new, correct value; the differential suite pins that
    *only* these paths moved historical simulated seconds.
    """

    def test_remote_messages_pay_nic_latency(self, cluster_spec):
        # Bug 1: remote messages were free apart from their bytes. On
        # paper-1gbe each one now costs 2 microseconds, injected in
        # parallel across the ten workers.
        meter = CostMeter(cluster_spec)
        meter.begin_round("msgs", barrier=False)
        meter.charge_message(0, 1, 84.0, count=1000)
        record = meter.end_round()
        nic = cluster_spec.hardware.nic
        workers = cluster_spec.num_workers
        assert record.network_latency_seconds == (
            1000 * nic.message_latency_seconds / workers
        )
        transfer = record.remote_bytes / (workers * nic.bandwidth)
        assert record.network_transfer_seconds == transfer
        # Pure-communication round: utilization sits at the cap.
        service = transfer + record.network_latency_seconds
        expected_queueing = (
            service * nic.queueing_factor * 0.95 / (1.0 - 0.95)
        )
        assert record.network_queueing_seconds == pytest.approx(
            expected_queueing
        )
        assert record.network_seconds == (
            record.network_transfer_seconds
            + record.network_latency_seconds
            + record.network_queueing_seconds
        )

    def test_queueing_shrinks_when_compute_overlaps(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.begin_round("congested", barrier=False)
        meter.charge_shuffle(1e8, count=1000)
        congested = meter.end_round()
        meter.begin_round("overlapped", barrier=False)
        meter.charge_shuffle(1e8, count=1000)
        for worker in range(cluster_spec.num_workers):
            meter.charge_compute(worker, 1e9)
        overlapped = meter.end_round()
        assert (
            overlapped.network_queueing_seconds
            < congested.network_queueing_seconds
        )
        # Transfer and latency depend only on the charges, not rho.
        assert (
            overlapped.network_transfer_seconds
            == congested.network_transfer_seconds
        )

    def test_single_worker_shuffle_stays_local(self):
        # Bug 2: one-worker clusters charged shuffles as remote
        # traffic, paying network time no wire would ever see.
        spec = ClusterSpec.from_profile("paper-1gbe", num_workers=1)
        meter = CostMeter(spec)
        meter.begin_round("shuffle", barrier=False)
        meter.charge_shuffle(10_000.0, count=7)
        record = meter.end_round()
        assert record.local_messages == 7
        assert record.remote_messages == 0
        assert record.remote_bytes == 0.0
        assert record.network_seconds == 0.0

    def test_striped_disk_pays_aggregate_bandwidth(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.begin_round("striped", barrier=False)
        meter.charge_disk_read(None, 1e9)
        meter.charge_disk_write(None, 5e8)
        record = meter.end_round()
        assert record.striped_disk_read_bytes == 1e9
        assert record.striped_disk_write_bytes == 5e8
        assert record.disk_seconds == (1e9 + 5e8) / (
            cluster_spec.num_workers * cluster_spec.disk_bandwidth
        )

    def test_skewed_disk_worker_is_a_straggler(self, cluster_spec):
        # Bug 3: all disk bytes were pooled at aggregate bandwidth, so
        # one worker spilling 10x its share looked as cheap as a
        # balanced write. Worker-attributed bytes now pay the max.
        meter = CostMeter(cluster_spec)
        meter.begin_round("skewed", barrier=False)
        meter.charge_disk_write(0, 1e9)
        meter.charge_disk_write(1, 1e8)
        skewed = meter.end_round()
        assert skewed.disk_seconds == 1e9 / cluster_spec.disk_bandwidth
        # The same total striped would be nearly num_workers cheaper.
        meter.begin_round("balanced", barrier=False)
        meter.charge_disk_write(None, 1.1e9)
        balanced = meter.end_round()
        assert balanced.disk_seconds < skewed.disk_seconds
        # Round totals are identical either way: replay and reports
        # keep seeing all traffic.
        assert skewed.disk_write_bytes == balanced.disk_write_bytes

    def test_random_disk_bytes_pay_random_bandwidth(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.begin_round("seeks", barrier=False)
        meter.charge_disk_random(2, 1e6)
        record = meter.end_round()
        random_bw = cluster_spec.hardware.disk.random_bandwidth
        assert record.disk_seconds == 1e6 / random_bw
        assert record.disk_read_bytes == 1e6
        meter.begin_round("seek-writes", barrier=False)
        meter.charge_disk_random(2, 1e6, write=True)
        writes = meter.end_round()
        assert writes.disk_write_bytes == 1e6
        assert writes.disk_seconds == record.disk_seconds


class TestBarrierPhysics:
    """end_round charges max over workers of *combined* work.

    Regression tests: the meter used to add ``max(ops)/rate`` and
    ``max(random)*latency`` computed over *different* workers, so a
    round whose compute-heavy and locality-heavy workers differed was
    overcharged — no single worker pays both maxima in a BSP round.
    """

    def test_disjoint_maxima_charge_slowest_worker_only(self, cluster_spec):
        meter = CostMeter(cluster_spec)
        meter.begin_round("mixed", barrier=False)
        # Worker 0 is compute-heavy, worker 1 is locality-heavy.
        meter.charge_compute(0, 1_000_000)
        meter.charge_random_access(1, 2_000_000)
        record = meter.end_round()
        spec = cluster_spec
        per_worker = [
            1_000_000 / spec.worker_ops_per_second,
            2_000_000 * spec.random_access_seconds,
        ]
        assert record.compute_seconds == pytest.approx(max(per_worker))
        # The old (wrong) charge was the sum of both maxima.
        assert record.compute_seconds < sum(per_worker)

    def test_same_worker_maxima_unchanged(self, cluster_spec):
        # When one worker holds both maxima, combined-max equals the
        # old separate-maxima formula: no behaviour shift for the
        # balanced charge patterns the golden fixtures cover.
        meter = CostMeter(cluster_spec)
        meter.begin_round("hot", barrier=False)
        meter.charge_compute(3, 500_000)
        meter.charge_random_access(3, 800_000)
        record = meter.end_round()
        expected = (
            500_000 / cluster_spec.worker_ops_per_second
            + 800_000 * cluster_spec.random_access_seconds
        )
        assert record.compute_seconds == pytest.approx(expected)
