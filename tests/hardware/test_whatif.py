"""Tests for the what-if hardware sweep (recost + report).

The sweep's contract is *charge invariance*: recorded charge tensors
never depend on hardware constants, so re-costing the base profile
must reproduce a fresh run bit-for-bit, and re-costing under faster
devices must never slow a run down.
"""

import dataclasses

import pytest

from repro.api import run_benchmark
from repro.hardware.models import PART_LETTERS, DiskModel, NicModel
from repro.hardware.registry import available_profiles, get_profile
from repro.hardware.whatif import recost, run_whatif
from repro.observability.replay import profile_fingerprint

#: The figure benches' testbed scaling (``benchmarks/conftest.py``):
#: throughput 2048x down, distributed memory 1024x down.
THROUGHPUT_SCALE = 2048.0
MEMORY_SCALE = 1024.0


@pytest.fixture(scope="module")
def recorded_runs():
    """One executed suite under the default profile, keyed by platform.

    giraph is the message-heavy workload (no disk), mapreduce the
    disk-heavy one — between them every device model is exercised.
    """
    suite = run_benchmark(
        ["graph500-8"],
        platforms=["giraph", "mapreduce"],
        algorithms=["BFS"],
        validate=False,
    )
    runs = {}
    for result in suite.results:
        assert result.succeeded, (result.platform, result.error)
        runs[result.platform] = result.run.profile
    return runs


def _faster_nic(profile):
    nic = profile.nic
    return dataclasses.replace(
        profile,
        nic=NicModel(
            bandwidth=nic.bandwidth * 2,
            message_latency_seconds=nic.message_latency_seconds / 2,
            queueing_factor=nic.queueing_factor / 2,
        ),
    )


def _faster_disk(profile):
    disk = profile.disk
    return dataclasses.replace(
        profile,
        disk=DiskModel(
            seq_bandwidth=disk.seq_bandwidth * 2,
            random_bandwidth=disk.random_bandwidth * 2,
        ),
    )


class TestRecost:
    def test_base_profile_recosts_bit_identically(self, recorded_runs):
        # The whole sweep design rests on this: end_round and recost
        # share one costing function, so same profile -> same floats.
        for run in recorded_runs.values():
            recosted = recost(
                run, run.cluster.hardware, name=run.cluster.name
            )
            assert profile_fingerprint(recosted) == profile_fingerprint(run)

    def test_recost_preserves_charges(self, recorded_runs):
        run = recorded_runs["giraph"]
        recosted = recost(run, get_profile("rdma"))
        for before, after in zip(run.rounds, recosted.rounds):
            assert after.ops_per_worker == before.ops_per_worker
            assert after.remote_bytes == before.remote_bytes
            assert after.remote_messages == before.remote_messages
            assert after.local_messages == before.local_messages
            assert after.disk_read_bytes == before.disk_read_bytes

    def test_recost_does_not_mutate_the_source(self, recorded_runs):
        run = recorded_runs["giraph"]
        before = profile_fingerprint(run)
        recost(run, get_profile("rdma"))
        assert profile_fingerprint(run) == before

    def test_startup_rescales_by_constant_ratio(self, recorded_runs):
        # MapReduce pays startup once per chained job, so a profile
        # with double the startup constant doubles the recorded total
        # rather than replacing it.
        run = recorded_runs["mapreduce"]
        hardware = run.cluster.hardware
        doubled = dataclasses.replace(
            hardware, startup_seconds=hardware.startup_seconds * 2
        )
        recosted = recost(run, doubled)
        assert recosted.startup_seconds == run.startup_seconds * 2

    def test_startup_kept_when_constants_agree(self, recorded_runs):
        run = recorded_runs["mapreduce"]
        recosted = recost(run, get_profile("rdma"))
        # rdma shares the paper cluster's 10 s startup constant.
        assert recosted.startup_seconds == run.startup_seconds


class TestMonotonicity:
    def test_faster_nic_never_slows_any_profile(self, recorded_runs):
        run = recorded_runs["giraph"]
        for name in available_profiles():
            profile = get_profile(name)
            base = recost(run, profile).simulated_seconds
            faster = recost(run, _faster_nic(profile)).simulated_seconds
            assert faster <= base, name

    def test_faster_disk_never_slows_any_profile(self, recorded_runs):
        run = recorded_runs["mapreduce"]
        for name in available_profiles():
            profile = get_profile(name)
            base = recost(run, profile).simulated_seconds
            faster = recost(run, _faster_disk(profile)).simulated_seconds
            assert faster <= base, name

    def test_network_upgrade_chain_is_monotone(self, recorded_runs):
        run = recorded_runs["giraph"]
        seconds = [
            recost(run, get_profile(name)).simulated_seconds
            for name in ("paper-1gbe", "10gbe", "rdma")
        ]
        assert seconds[0] > seconds[1] > seconds[2]

    def test_nvme_strictly_beats_hdd_on_disk_heavy_work(self, recorded_runs):
        run = recorded_runs["mapreduce"]
        hdd = recost(run, get_profile("hdd")).simulated_seconds
        nvme = recost(run, get_profile("nvme")).simulated_seconds
        assert nvme < hdd


class TestComponents:
    def test_component_totals_cover_all_round_time(self, recorded_runs):
        run = recorded_runs["giraph"]
        parts = run.breakdown().parts()
        assert set(parts) == set(PART_LETTERS)
        assert parts["startup"] == run.startup_seconds
        assert sum(parts.values()) == pytest.approx(
            run.simulated_seconds, rel=1e-12
        )

    def test_dominant_component_is_argmax(self, recorded_runs):
        for run in recorded_runs.values():
            breakdown = run.breakdown()
            parts = breakdown.parts()
            assert parts[breakdown.dominant()] == max(parts.values())


class TestRunWhatif:
    def test_golden_bfs_table_across_network_profiles(self):
        # Golden sweep: giraph BFS on the scale-8 R-MAT graph under the
        # three network tiers. Values are pinned — the sweep is fully
        # deterministic — and must fall as the fabric gets faster.
        report = run_whatif(
            ["graph500-8"],
            algorithms=["BFS"],
            platforms=["giraph"],
            profiles=["paper-1gbe", "10gbe", "rdma"],
        )
        golden = {
            "paper-1gbe": 11.80196627617138,
            "10gbe": 10.900911667870261,
            "rdma": 10.300053046656274,
        }
        for profile, expected in golden.items():
            cell = report.cell("giraph", "graph500-8", "BFS", profile)
            assert cell.simulated_seconds == pytest.approx(
                expected, rel=1e-12
            )
            assert cell.fits_memory
        rendered = report.render()
        assert "paper-1gbe" in rendered and "rdma" in rendered
        assert "largest part of simulated time" in rendered

    def test_dominant_choke_point_shifts_with_the_fabric(self):
        # The acceptance scenario, on the figure benches' scaled
        # testbed: giraph PageRank at scale 14 is network-bound on the
        # paper's 1 GbE cluster; on RDMA the network collapses and the
        # fixed startup becomes the largest part. (Unscaled, the
        # 10 s startup already dominates on 1 GbE.)
        suite = run_benchmark(
            ["graph500-14"],
            platforms=["giraph"],
            algorithms=["PR"],
            validate=False,
        )
        (result,) = suite.results
        slow, fast = (
            recost(
                result.run.profile,
                get_profile(name).scaled(THROUGHPUT_SCALE, MEMORY_SCALE),
            )
            for name in ("paper-1gbe", "rdma")
        )
        slow_parts, fast_parts = slow.breakdown(), fast.breakdown()
        assert slow_parts.dominant() == "network"
        assert slow_parts.dominant_letter() == "N"
        assert fast_parts.dominant() == "startup"
        assert fast_parts.dominant_letter() == "F"
        assert fast_parts.network < slow_parts.network
        assert fast.simulated_seconds < slow.simulated_seconds

    def test_single_machine_platforms_rejected(self):
        with pytest.raises(ValueError, match="single-machine"):
            run_whatif(["graph500-8"], platforms=["neo4j"])

    def test_missing_cell_raises(self):
        report = run_whatif(
            ["graph500-8"],
            algorithms=["BFS"],
            platforms=["giraph"],
            profiles=["paper-1gbe"],
        )
        with pytest.raises(KeyError):
            report.cell("giraph", "graph500-8", "BFS", "rdma")
