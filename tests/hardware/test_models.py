"""Unit tests for the component hardware models.

The registered profiles keep ``memory_pressure_factor == 0`` (the
bit-compat guarantee), so the pressure and queueing physics are
exercised here with custom profiles.
"""

import dataclasses

import pytest

from repro.core.cost import RoundRecord
from repro.hardware.models import (
    MEMORY_PRESSURE_THRESHOLD,
    PART_LETTERS,
    RHO_CAP,
    CpuModel,
    DiskModel,
    HardwareProfile,
    NicModel,
    RoundTimes,
    TimeBreakdown,
)
from repro.observability.replay import _record_from_span


def make_profile(**overrides) -> HardwareProfile:
    """A small fully-specified profile for hand-computable physics."""
    base = dict(
        name="test",
        cpu=CpuModel(cores=4, ops_per_second=1e6, random_access_seconds=1e-6),
        nic=NicModel(
            bandwidth=1e6, message_latency_seconds=1e-5, queueing_factor=0.5
        ),
        disk=DiskModel(seq_bandwidth=1e8, random_bandwidth=1e6),
        memory_bytes_per_worker=1e9,
        memory_pressure_factor=0.0,
        barrier_seconds=0.1,
        startup_seconds=1.0,
    )
    base.update(overrides)
    return HardwareProfile(**base)


def make_record(num_workers: int = 2, **overrides) -> RoundRecord:
    base = dict(
        name="r0",
        ops_per_worker=[0.0] * num_workers,
        random_accesses_per_worker=[0.0] * num_workers,
        disk_bytes_per_worker=[0.0] * num_workers,
        disk_random_bytes_per_worker=[0.0] * num_workers,
    )
    base.update(overrides)
    return RoundRecord(**base)


class TestCpuModel:
    def test_worker_throughput_aggregates_cores(self):
        cpu = CpuModel(cores=8, ops_per_second=25e6, random_access_seconds=1e-7)
        assert cpu.worker_ops_per_second == 8 * 25e6

    def test_worker_seconds(self):
        cpu = CpuModel(cores=4, ops_per_second=1e6, random_access_seconds=1e-6)
        assert cpu.worker_seconds(4e6, 0.0) == 1.0
        assert cpu.worker_seconds(0.0, 1e6) == pytest.approx(1.0)
        assert cpu.worker_seconds(4e6, 1e6) == pytest.approx(2.0)

    def test_requires_at_least_one_core(self):
        with pytest.raises(ValueError):
            CpuModel(cores=0, ops_per_second=1e6, random_access_seconds=1e-7)

    def test_scaled_divides_throughput_grows_latency(self):
        cpu = CpuModel(cores=4, ops_per_second=1e6, random_access_seconds=1e-6)
        scaled = cpu.scaled(2.0)
        assert scaled.cores == 4
        assert scaled.ops_per_second == 5e5
        assert scaled.random_access_seconds == 2e-6


class TestNicModel:
    def test_transfer_uses_aggregate_bandwidth(self):
        nic = NicModel(bandwidth=1e6)
        transfer, latency = nic.service_seconds(4e6, 0, num_workers=4)
        assert transfer == 1.0
        assert latency == 0.0

    def test_per_message_latency_paid_in_parallel(self):
        nic = NicModel(bandwidth=1e6, message_latency_seconds=2e-6)
        _, latency = nic.service_seconds(0.0, 1000, num_workers=10)
        assert latency == 1000 * 2e-6 / 10

    def test_zero_traffic_is_exactly_free(self):
        # The guard must hold even for the infinite-bandwidth no-NIC
        # device, where 0/inf arithmetic would otherwise be exercised.
        nic = NicModel(bandwidth=float("inf"))
        assert nic.service_seconds(0.0, 0, num_workers=1) == (0.0, 0.0)

    def test_zero_latency_constant_charges_nothing(self):
        nic = NicModel(bandwidth=1e6, message_latency_seconds=0.0)
        _, latency = nic.service_seconds(1e6, 10**9, num_workers=2)
        assert latency == 0.0

    def test_queueing_disabled_without_factor(self):
        nic = NicModel(bandwidth=1e6, queueing_factor=0.0)
        assert nic.queueing_seconds(10.0, 0.0) == 0.0

    def test_queueing_zero_without_service(self):
        nic = NicModel(bandwidth=1e6, queueing_factor=0.5)
        assert nic.queueing_seconds(0.0, 5.0) == 0.0

    def test_queueing_saturates_at_rho_cap(self):
        # Pure communication drives rho to the cap: delay factor
        # qf * RHO_CAP / (1 - RHO_CAP) = 19 * qf.
        nic = NicModel(bandwidth=1e6, queueing_factor=0.25)
        service = 2.0
        expected = service * 0.25 * RHO_CAP / (1.0 - RHO_CAP)
        assert nic.queueing_seconds(service, 0.0) == expected

    def test_compute_overlap_keeps_queues_short(self):
        nic = NicModel(bandwidth=1e6, queueing_factor=0.25)
        congested = nic.queueing_seconds(1.0, 0.0)
        overlapped = nic.queueing_seconds(1.0, 99.0)
        assert overlapped < congested
        # rho = 1/100 when compute dominates.
        assert overlapped == pytest.approx(1.0 * 0.25 * 0.01 / 0.99)


class TestDiskModel:
    def test_striped_bytes_use_aggregate_bandwidth(self):
        disk = DiskModel(seq_bandwidth=1e8, random_bandwidth=1e6)
        seconds = disk.round_seconds(3e8, 1e8, [], [], num_workers=4)
        assert seconds == (3e8 + 1e8) / (4 * 1e8)

    def test_attributed_bytes_pay_max_over_workers(self):
        disk = DiskModel(seq_bandwidth=1e8, random_bandwidth=1e6)
        seconds = disk.round_seconds(
            0.0, 0.0, [1e8, 2e8, 0.0], [], num_workers=3
        )
        assert seconds == 2e8 / 1e8

    def test_random_bytes_pay_random_bandwidth(self):
        disk = DiskModel(seq_bandwidth=1e8, random_bandwidth=1e6)
        seconds = disk.round_seconds(0.0, 0.0, [], [5e5, 1e6], num_workers=2)
        assert seconds == 1e6 / 1e6

    def test_components_sum(self):
        disk = DiskModel(seq_bandwidth=1e8, random_bandwidth=1e6)
        seconds = disk.round_seconds(2e8, 2e8, [1e8], [1e6], num_workers=2)
        assert seconds == (4e8 / 2e8) + (1e8 / 1e8) + (1e6 / 1e6)

    def test_scaled(self):
        disk = DiskModel(seq_bandwidth=1e8, random_bandwidth=1e6).scaled(2.0)
        assert disk.seq_bandwidth == 5e7
        assert disk.random_bandwidth == 5e5


class TestRoundTimes:
    def test_network_seconds_sums_components(self):
        times = RoundTimes(
            compute_seconds=1.0,
            network_transfer_seconds=0.5,
            network_latency_seconds=0.25,
            network_queueing_seconds=0.125,
            disk_seconds=0.0,
            barrier_seconds=0.0,
        )
        assert times.network_seconds == 0.5 + 0.25 + 0.125

    def test_zeroed_overheads_leave_transfer_untouched(self):
        # Bit-compat guard: with latency and queueing at zero the
        # total *is* the transfer term, not transfer + 0.0 + 0.0.
        times = RoundTimes(
            compute_seconds=0.0,
            network_transfer_seconds=0.3,
            network_latency_seconds=0.0,
            network_queueing_seconds=0.0,
            disk_seconds=0.0,
            barrier_seconds=0.0,
        )
        assert times.network_seconds == 0.3


class TestMemoryPressure:
    def test_inactive_below_threshold(self):
        profile = make_profile(memory_pressure_factor=1.0)
        budget = profile.memory_bytes_per_worker
        assert profile.memory_pressure_multiplier(0.0) == 1.0
        at_threshold = MEMORY_PRESSURE_THRESHOLD * budget
        assert profile.memory_pressure_multiplier(at_threshold) == 1.0

    def test_grows_linearly_past_threshold(self):
        profile = make_profile(memory_pressure_factor=1.0)
        assert profile.memory_pressure_multiplier(
            0.75 * profile.memory_bytes_per_worker
        ) == pytest.approx(1.5)

    def test_clamps_at_full_ram(self):
        profile = make_profile(memory_pressure_factor=1.0)
        over = 2.0 * profile.memory_bytes_per_worker
        assert profile.memory_pressure_multiplier(over) == pytest.approx(2.0)

    def test_zero_factor_disables_term(self):
        profile = make_profile(memory_pressure_factor=0.0)
        assert profile.memory_pressure_multiplier(1e18) == 1.0

    def test_pressure_multiplies_round_compute(self):
        calm = make_profile(memory_pressure_factor=0.0)
        pressured = make_profile(memory_pressure_factor=1.0)
        record = make_record(
            ops_per_worker=[4e6, 0.0],
            live_memory_bytes=0.75 * calm.memory_bytes_per_worker,
        )
        base = calm.round_times(record, num_workers=2)
        slowed = pressured.round_times(record, num_workers=2)
        assert slowed.compute_seconds == pytest.approx(
            1.5 * base.compute_seconds
        )


class TestHardwareProfileRoundTimes:
    def test_compute_is_max_over_workers(self):
        profile = make_profile()
        record = make_record(
            ops_per_worker=[4e6, 8e6],
            random_accesses_per_worker=[0.0, 1e6],
        )
        times = profile.round_times(record, num_workers=2)
        # Worker 1: 8e6 / (4 * 1e6) + 1e6 * 1e-6 = 2 + 1.
        assert times.compute_seconds == pytest.approx(3.0)

    def test_network_terms_match_hand_math(self):
        profile = make_profile()
        record = make_record(remote_bytes=2e6, remote_messages=100)
        times = profile.round_times(record, num_workers=2)
        transfer = 2e6 / (2 * 1e6)
        latency = 100 * 1e-5 / 2
        assert times.network_transfer_seconds == transfer
        assert times.network_latency_seconds == latency
        service = transfer + latency
        rho = min(service / service, RHO_CAP)  # zero compute round
        assert times.network_queueing_seconds == pytest.approx(
            service * 0.5 * rho / (1.0 - rho)
        )

    def test_barrier_flag_and_override(self):
        profile = make_profile()
        record = make_record(barrier=True)
        assert profile.round_times(record, 2).barrier_seconds == 0.1
        assert (
            profile.round_times(
                record, 2, barrier_override=0.7
            ).barrier_seconds
            == 0.7
        )
        no_barrier = make_record(barrier=False)
        assert profile.round_times(no_barrier, 2).barrier_seconds == 0.0

    def test_straggler_penalty_extends_compute(self):
        profile = make_profile()
        record = make_record(ops_per_worker=[4e6, 0.0])
        base = profile.round_times(record, 2)
        slowed = profile.round_times(record, 2, straggler_penalty_seconds=2.5)
        assert slowed.compute_seconds == base.compute_seconds + 2.5

    def test_legacy_records_without_striped_fields(self):
        # Replayed trace spans predating the disk split fall back to
        # the round-total byte counters.
        legacy_span = {
            "name": "r0",
            "ops_per_worker": [0.0],
            "random_accesses_per_worker": [0.0],
            "local_messages": 0,
            "remote_messages": 0,
            "remote_bytes": 0.0,
            "disk_read_bytes": 1e8,
            "disk_write_bytes": 1e8,
            "active_vertices": 0,
            "barrier": False,
            "compute_seconds": 0.0,
            "network_seconds": 0.0,
            "disk_seconds": 0.0,
            "barrier_seconds": 0.0,
        }
        profile = make_profile()
        record = _record_from_span(legacy_span)
        times = profile.round_times(record, num_workers=2)
        assert times.disk_seconds == (1e8 + 1e8) / (2 * 1e8)


def costed(profile, record, num_workers=2, **round_times_kwargs):
    """``record`` with its seconds derived as ``CostMeter.end_round`` does."""
    times = profile.round_times(record, num_workers, **round_times_kwargs)
    return dataclasses.replace(
        record,
        compute_seconds=times.compute_seconds,
        network_seconds=times.network_seconds,
        network_transfer_seconds=times.network_transfer_seconds,
        network_latency_seconds=times.network_latency_seconds,
        network_queueing_seconds=times.network_queueing_seconds,
        disk_seconds=times.disk_seconds,
        barrier_seconds=times.barrier_seconds,
    )


class TestAttribute:
    # Worker 0 runs 8e6 ops (2 s at 4 cores x 1e6 ops/s) plus 1e6
    # random accesses (1 s); worker 1 idles. The mean worker is 1 s of
    # compute and 0.5 s of locality; the busiest leads it by 1.5 s.
    def _record(self, **overrides):
        return make_record(
            ops_per_worker=[8e6, 0.0],
            random_accesses_per_worker=[1e6, 0.0],
            remote_bytes=2e6,
            remote_messages=10,
            striped_disk_read_bytes=2e8,
            **overrides,
        )

    def test_parts_split_the_mean_and_the_busiest_worker(self):
        profile = make_profile()
        record = costed(profile, self._record())
        parts = profile.attribute(record)
        assert (parts.compute, parts.locality, parts.skew) == (1.0, 0.5, 1.5)
        assert parts.memory == 0.0
        assert parts.network == record.network_seconds > 0.0
        assert parts.disk == record.disk_seconds == 1.0
        assert parts.barrier == record.barrier_seconds == 0.1
        assert parts.startup == 0.0
        assert parts.seconds == pytest.approx(record.seconds, rel=1e-15)
        assert parts.worker_skew == 2.0

    def test_pressure_surcharge_is_memory(self):
        profile = make_profile(memory_pressure_factor=1.0)
        record = costed(
            profile,
            self._record(
                live_memory_bytes=0.75 * profile.memory_bytes_per_worker
            ),
        )
        parts = profile.attribute(record)
        # 1.5x pressure on the 3 s busiest worker: 1.5 s surcharge.
        assert (parts.compute, parts.locality, parts.skew) == (1.0, 0.5, 1.5)
        assert parts.memory == 1.5
        assert parts.seconds == pytest.approx(record.seconds, rel=1e-15)

    def test_straggler_penalty_is_skew(self):
        profile = make_profile()
        record = costed(
            profile, self._record(), straggler_penalty_seconds=2.5
        )
        parts = profile.attribute(record)
        assert (parts.compute, parts.locality) == (1.0, 0.5)
        assert parts.skew == 1.5 + 2.5
        assert parts.worker_skew == pytest.approx((1.5 + 4.0) / 1.5)

    def test_idle_round_is_all_barrier(self):
        profile = make_profile()
        parts = profile.attribute(costed(profile, make_record()))
        assert parts == TimeBreakdown(barrier=0.1)
        assert parts.worker_skew == 1.0
        assert parts.dominant_letter() == "B"


class TestTimeBreakdown:
    def test_letters_are_distinct_and_startup_is_fixed_overhead(self):
        assert len(set(PART_LETTERS.values())) == len(PART_LETTERS)
        assert list(PART_LETTERS) == [
            f.name for f in dataclasses.fields(TimeBreakdown)
        ]
        assert PART_LETTERS["startup"] == "F"

    def test_dominant_is_the_largest_part(self):
        parts = TimeBreakdown(network=2.0, barrier=1.0, startup=3.0)
        assert parts.dominant() == "startup"
        assert parts.dominant_letter() == "F"
        assert parts.share("network") == pytest.approx(2.0 / 6.0)

    def test_ties_go_to_the_earlier_part(self):
        assert TimeBreakdown(network=1.0, startup=1.0).dominant() == "network"
        assert TimeBreakdown().dominant() == "compute"
        assert TimeBreakdown().share("barrier") == 0.0

    def test_addition_is_per_part(self):
        total = TimeBreakdown(compute=1.0, skew=0.5) + TimeBreakdown(
            compute=2.0, startup=10.0
        )
        assert total == TimeBreakdown(compute=3.0, skew=0.5, startup=10.0)
        assert total.seconds == 13.5

    def test_describe_ranks_nonzero_shares(self):
        parts = TimeBreakdown(network=1.0, barrier=1.0, startup=2.0)
        assert parts.describe() == "F=50.0% N=25.0% B=25.0%"


class TestProfileTransforms:
    def test_scaled_touches_throughputs_only(self):
        profile = make_profile()
        scaled = profile.scaled(2.0, memory=4.0)
        assert scaled.cpu.ops_per_second == profile.cpu.ops_per_second / 2
        assert scaled.nic.bandwidth == profile.nic.bandwidth / 2
        assert scaled.disk.seq_bandwidth == profile.disk.seq_bandwidth / 2
        assert (
            scaled.memory_bytes_per_worker
            == profile.memory_bytes_per_worker / 4
        )
        # Latency-like constants survive scaling untouched.
        assert (
            scaled.nic.message_latency_seconds
            == profile.nic.message_latency_seconds
        )
        assert scaled.barrier_seconds == profile.barrier_seconds
        assert scaled.startup_seconds == profile.startup_seconds

    def test_dict_round_trip_is_exact(self):
        profile = make_profile(memory_pressure_factor=0.125)
        assert HardwareProfile.from_dict(profile.to_dict()) == profile

    def test_from_dict_defaults_optional_fields(self):
        data = make_profile().to_dict()
        for key in ("memory_pressure_factor", "barrier_seconds", "startup_seconds"):
            del data[key]
        restored = HardwareProfile.from_dict(data)
        assert restored.memory_pressure_factor == 0.0
        assert restored.barrier_seconds == 0.0
        assert restored.startup_seconds == 0.0
