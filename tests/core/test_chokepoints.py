"""Unit tests for the choke-point analysis (Section 2.1)."""

import pytest

from repro.core.chokepoints import analyze_profile
from repro.core.cost import CostMeter
from repro.core.workload import Algorithm, AlgorithmParams
from repro.platforms.pregel.driver import GiraphPlatform


def _profile(cluster_spec, build):
    meter = CostMeter(cluster_spec)
    build(meter)
    return meter.profile


def test_network_share(cluster_spec):
    def build(meter):
        meter.begin_round("talky")
        meter.charge_shuffle(1e9)
        meter.end_round()

    report = analyze_profile(_profile(cluster_spec, build))
    assert report.total_remote_bytes == 1e9
    assert report.breakdown.share("network") > 0.5
    assert report.breakdown.dominant() == "network"


def test_memory_share(cluster_spec):
    def build(meter):
        budget = cluster_spec.hardware.memory_bytes_per_worker
        meter.allocate_memory(0, budget * 0.9)
        meter.begin_round("big")
        meter.charge_compute(0, 1)
        meter.end_round()

    report = analyze_profile(_profile(cluster_spec, build))
    assert report.memory_budget_share == pytest.approx(0.9)


def test_locality_share(cluster_spec):
    def build(meter):
        meter.begin_round("chase")
        meter.charge_random_access(0, 900)
        meter.charge_compute(0, 100)
        meter.end_round()

    report = analyze_profile(_profile(cluster_spec, build))
    assert report.random_access_share == pytest.approx(0.9)


def test_skew_and_tail(cluster_spec):
    def build(meter):
        meter.begin_round("busy")
        meter.charge_compute(0, 1000)
        meter.charge_compute(1, 1000)
        meter.end_round(active_vertices=1000)
        for index in range(8):
            meter.begin_round(f"tail-{index}")
            meter.charge_compute(0, 1)
            meter.end_round(active_vertices=1)

    report = analyze_profile(_profile(cluster_spec, build))
    # 8 of 9 rounds are in the convergence tail (1 < 1% of 1000 is
    # false — 1/1000 = 0.1%, below the 1% threshold).
    assert report.tail_rounds == 8
    assert report.tail_round_share == pytest.approx(8 / 9)
    assert report.breakdown.share("barrier") > 0.5
    assert report.max_skew >= report.mean_skew >= 1.0


def test_empty_profile(cluster_spec):
    report = analyze_profile(_profile(cluster_spec, lambda meter: None))
    assert report.tail_rounds == 0
    assert report.mean_skew == 1.0
    assert report.breakdown.share("network") == 0.0


def test_real_run_tail_detected(cluster_spec, medium_rmat):
    # CONN on a skewed graph converges with low-activity final rounds.
    platform = GiraphPlatform(cluster_spec)
    handle = platform.upload_graph("g", medium_rmat)
    run = platform.run_algorithm(handle, Algorithm.CONN, AlgorithmParams())
    report = analyze_profile(run.profile, tail_threshold=0.05)
    assert report.tail_rounds >= 1
    assert report.max_skew > 1.0


def test_purely_random_rounds_counted_in_skew(cluster_spec):
    # Regression: the skew-sample filter used ``total_ops > 0``, so a
    # round whose work is all random accesses (pointer-chasing
    # traversals) was silently dropped from the skew statistics.
    def build(meter):
        meter.begin_round("pointer-chase")
        meter.charge_random_access(0, 9_000)
        meter.charge_random_access(1, 1_000)
        meter.end_round(active_vertices=10)

    report = analyze_profile(_profile(cluster_spec, build))
    record_skew = 9_000 / ((9_000 + 1_000) / cluster_spec.num_workers)
    assert report.max_skew == pytest.approx(record_skew)
    assert report.mean_skew == pytest.approx(record_skew)
    assert report.busiest_round_skew == pytest.approx(record_skew)


def test_busiest_round_picked_by_combined_work(cluster_spec):
    def build(meter):
        meter.begin_round("ops-light")
        meter.charge_compute(0, 100)
        meter.end_round()
        meter.begin_round("random-heavy")
        meter.charge_random_access(0, 1_000_000)
        meter.end_round()

    report = analyze_profile(_profile(cluster_spec, build))
    # The random-heavy round does the most combined work; its skew
    # (all work on worker 0 of 10) must win the busiest-round slot.
    assert report.busiest_round_skew == pytest.approx(10.0)
