"""One time attribution: every part sums back to the simulated seconds.

``HardwareProfile.attribute`` splits a costed round into compute,
locality, skew, memory, network, disk and barrier seconds, and
``RunProfile.breakdown`` adds the launches' startup. Every choke-point
letter and time share reads that split, so it must account for every
simulated second of every registered platform's every algorithm — the
cells of ``tests/test_derived_repetitions.py`` — up to float
reassociation. Injected stragglers and memory pressure must land in
their own parts.
"""

from dataclasses import replace

import pytest

from repro.core.cost import ClusterSpec
from repro.core.workload import Algorithm
from repro.observability import TraceSink
from repro.platforms.registry import create_platform_fleet
from repro.robustness.faults import FaultInjector, FaultPlan
from tests.test_derived_repetitions import CELLS, PARAMS, graph  # noqa: F401

#: Float reassociation only: the parts are the recorded seconds
#: regrouped, never re-derived from another formula.
RELATIVE = 1e-12


def _close(total: float, expected: float) -> bool:
    return abs(total - expected) <= RELATIVE * abs(expected)


def _run(platform_name, algorithm, graph, cluster=None, faults=None, sinks=()):
    (platform,) = create_platform_fleet(
        cluster or ClusterSpec.paper_distributed(), names=[platform_name]
    )
    platform.faults = faults
    platform.sinks = sinks
    handle = platform.upload_graph("g", graph)
    return platform.run_algorithm(handle, algorithm, PARAMS).profile


class _StragglerSpans(TraceSink):
    """Each closed round's straggler penalty, as its span carries it."""

    def __init__(self):
        self.penalties: list[float] = []

    def on_round_end(self, index, record, straggler_penalty_seconds=0.0):
        self.penalties.append(straggler_penalty_seconds)


@pytest.mark.parametrize(
    "platform_name, algorithm",
    CELLS,
    ids=[f"{name}-{algorithm.value}" for name, algorithm in CELLS],
)
def test_parts_sum_to_every_round_and_run(platform_name, algorithm, graph):
    profile = _run(platform_name, algorithm, graph)
    hardware = profile.cluster.hardware
    assert profile.rounds
    for record in profile.rounds:
        parts = hardware.attribute(record)
        assert parts.startup == 0.0
        assert _close(parts.seconds, record.seconds), record.name
        # Every part is a share of time, never a correction term.
        for name, seconds in parts.parts().items():
            assert seconds >= -RELATIVE * record.seconds, (record.name, name)
    breakdown = profile.breakdown()
    assert breakdown.startup == profile.launches * hardware.startup_seconds
    assert profile.launches >= 1
    assert _close(breakdown.seconds, profile.simulated_seconds)


def test_straggler_penalty_moves_into_skew(graph):
    plain = _run("giraph", Algorithm.BFS, graph)
    spans = _StragglerSpans()
    injector = FaultInjector(
        FaultPlan.parse("straggler:workers=0,factor=4"), platform="giraph"
    )
    slowed = _run(
        "giraph", Algorithm.BFS, graph, faults=injector, sinks=(spans,)
    )
    attribute = plain.cluster.hardware.attribute
    assert any(spans.penalties)
    assert len(spans.penalties) == len(plain.rounds) == len(slowed.rounds)
    for before, after, penalty in zip(
        plain.rounds, slowed.rounds, spans.penalties
    ):
        calm, straggling = attribute(before), attribute(after)
        assert (straggling.compute, straggling.locality) == (
            calm.compute, calm.locality,
        )
        assert straggling.memory == calm.memory
        assert (straggling.disk, straggling.barrier) == (
            calm.disk, calm.barrier,
        )
        moved = straggling.skew - calm.skew
        assert abs(moved - penalty) <= RELATIVE * after.seconds


def test_memory_pressure_surcharge_is_the_memory_part(graph):
    base = ClusterSpec.paper_distributed()
    peak = _run("giraph", Algorithm.PR, graph).peak_memory
    # Budget the run's peak at 80% of RAM, past the 50% pressure knee.
    calm = replace(
        base,
        hardware=replace(base.hardware, memory_bytes_per_worker=peak / 0.8),
    )
    pressured = replace(
        calm, hardware=replace(calm.hardware, memory_pressure_factor=2.0)
    )
    relaxed = _run("giraph", Algorithm.PR, graph, cluster=calm)
    squeezed = _run("giraph", Algorithm.PR, graph, cluster=pressured)
    assert relaxed.breakdown().memory == 0.0
    surcharged = 0
    for before, after in zip(relaxed.rounds, squeezed.rounds):
        calm_parts = calm.hardware.attribute(before)
        parts = pressured.hardware.attribute(after)
        assert (parts.compute, parts.locality) == (
            calm_parts.compute, calm_parts.locality,
        )
        surcharge = after.compute_seconds - before.compute_seconds
        assert abs(parts.memory - surcharge) <= RELATIVE * after.seconds
        assert abs(parts.skew - calm_parts.skew) <= RELATIVE * after.seconds
        surcharged += parts.memory > 0.0
    assert surcharged
    assert squeezed.breakdown().memory > 0.0
