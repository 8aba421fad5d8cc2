"""Derived repetitions: a fault-free cell executes exactly once.

Without a fault plan a cell's output and profile are a function of
(platform, graph, algorithm, params, cluster), so ``BenchmarkCore``
runs the algorithm once, skips the warmup executions, and records
that run as every repetition. These tests hold every registered
platform, on every algorithm it supports, to that contract: the
derived cell must equal, bit for bit, what one warmup plus N direct
executions on one handle give. Platforms and algorithms are
discovered from the registry and each driver's
``supported_algorithms``, not hand-listed, so a new driver whose
executions are not reproducible fails here.

Under a fault plan the injector reseeds on every execution and counts
executions for transient faults, so every warmup and repetition of
every attempt still executes.
"""

import pytest

from repro.core.benchmark import BenchmarkCore
from repro.core.chokepoints import analyze_profile
from repro.core.cost import ClusterSpec
from repro.core.metrics import edges_traversed_for, kteps
from repro.core.monitor import SystemMonitor
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm, AlgorithmParams, BenchmarkRunSpec
from repro.graph.generators import rmat_graph
from repro.observability import profile_fingerprint
from repro.platforms.registry import available_platforms, create_platform_fleet
from repro.robustness.faults import FaultPlan

REPETITIONS = 3
WARMUP = 1
PARAMS = AlgorithmParams()


def _platform(name: str):
    (platform,) = create_platform_fleet(
        ClusterSpec.paper_distributed(), names=[name]
    )
    return platform


def _count_executions(platform) -> list:
    """Record every ``run_algorithm`` call made on this instance."""
    calls = []
    run_algorithm = platform.run_algorithm

    def counting(handle, algorithm, params=None):
        calls.append(algorithm)
        return run_algorithm(handle, algorithm, params)

    platform.run_algorithm = counting
    return calls


def _spec(algorithm: Algorithm) -> BenchmarkRunSpec:
    return BenchmarkRunSpec(
        algorithms=[algorithm],
        params=PARAMS,
        repetitions=REPETITIONS,
        warmup_runs=WARMUP,
    )


#: Every (registered platform, supported algorithm) cell.
CELLS = [
    (name, algorithm)
    for name in available_platforms()
    for algorithm in _platform(name).supported_algorithms()
]


@pytest.fixture(scope="module")
def graph():
    """Small, undirected, weighted: every algorithm runs on it."""
    return rmat_graph(
        scale=6, edge_factor=8, seed=7, directed=False
    ).with_uniform_weights(seed=3)


@pytest.mark.parametrize(
    "platform_name, algorithm",
    CELLS,
    ids=[f"{name}-{algorithm.value}" for name, algorithm in CELLS],
)
def test_fault_free_cell_equals_executed_repetitions(
    platform_name, algorithm, graph
):
    platform = _platform(platform_name)
    calls = _count_executions(platform)
    core = BenchmarkCore(
        [platform], {"g": graph}, validator=OutputValidator()
    )
    (result,) = core.run(_spec(algorithm)).results
    assert calls == [algorithm]
    assert result.succeeded, result.failure_reason

    direct = _platform(platform_name)
    handle = direct.upload_graph("g", graph)
    runs = [
        direct.run_algorithm(handle, algorithm, PARAMS)
        for _ in range(WARMUP + REPETITIONS)
    ][WARMUP:]
    runtimes = [run.simulated_seconds for run in runs]
    last = runs[-1]
    for run in runs:
        assert run.output == last.output
        assert profile_fingerprint(run.profile) == profile_fingerprint(
            last.profile
        )
    assert result.repetition_runtimes == runtimes
    assert result.runtime_seconds == runtimes[0]
    assert result.kteps == kteps(
        edges_traversed_for(graph, algorithm, PARAMS), runtimes[0]
    )
    assert result.run.output == last.output
    assert profile_fingerprint(result.run.profile) == profile_fingerprint(
        last.profile
    )
    assert result.chokepoints == analyze_profile(last.profile)
    assert result.samples == SystemMonitor().samples_from_profile(
        last.profile
    )


@pytest.mark.parametrize("platform_name", available_platforms())
def test_fault_plan_executes_every_warmup_and_repetition(platform_name, graph):
    platform = _platform(platform_name)
    calls = _count_executions(platform)
    core = BenchmarkCore(
        [platform],
        {"g": graph},
        fault_plan=FaultPlan.parse("straggler:workers=0,factor=4"),
    )
    (result,) = core.run(_spec(Algorithm.BFS)).results
    assert result.succeeded, result.failure_reason
    assert result.attempts == 1
    assert len(calls) == WARMUP + REPETITIONS


def test_retried_attempt_reruns_its_warmup_and_repetitions(graph):
    platform = _platform("giraph")
    calls = _count_executions(platform)
    core = BenchmarkCore(
        [platform],
        {"g": graph},
        fault_plan=FaultPlan.parse("crash:worker=0,round=0;transient:attempts=1"),
        max_retries=1,
    )
    (result,) = core.run(_spec(Algorithm.BFS)).results
    assert result.succeeded, result.failure_reason
    assert result.attempts == 2
    # The first attempt dies in its warmup execution; the retry runs
    # the full warmup + repetitions schedule.
    assert len(calls) == 1 + WARMUP + REPETITIONS
