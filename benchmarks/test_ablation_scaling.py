"""Ablation: validity of the scaled-testbed methodology.

The benches run graphs ~2048x smaller than the paper's and scale the
cluster's throughputs down by the same factor (EXPERIMENTS.md,
"Scaling"). That substitution is only sound if *relative* platform
behaviour is invariant under the joint scaling. This ablation checks
it directly: the same workload at two different (graph size,
throughput scale) points must produce

* proportional per-platform runtimes once fixed costs (startup,
  barriers — deliberately not scaled) are subtracted, and
* the same platform ordering.
"""

import pytest

from benchmarks.conftest import print_table
from repro.core.cost import ClusterSpec
from repro.core.workload import Algorithm, AlgorithmParams
from repro.datasets import graph500_graph
from repro.platforms.registry import create_platform

PLATFORMS = ("giraph", "graphx", "mapreduce")


def _variable_runtime(platform_name, spec, graph, algorithm):
    """Simulated runtime minus the unscaled fixed costs."""
    platform = create_platform(platform_name, spec)
    handle = platform.upload_graph("g", graph)
    try:
        run = platform.run_algorithm(handle, algorithm, AlgorithmParams())
    finally:
        platform.delete_graph(handle)
    breakdown = run.profile.breakdown()
    fixed = breakdown.startup + breakdown.barrier
    return run.simulated_seconds - fixed


@pytest.mark.benchmark(group="ablation-scaling")
def test_ablation_scaling_invariance(benchmark):
    base = ClusterSpec.paper_distributed()
    # Two joint (graph, throughput) scale points, a factor 4 apart:
    # graph500-12 has ~4x the edges of graph500-10.
    small_graph = graph500_graph(10)
    large_graph = graph500_graph(12)
    small_spec = base.scaled(8192.0, memory=1.0)
    large_spec = base.scaled(2048.0, memory=1.0)

    def measure():
        results = {}
        for name in PLATFORMS:
            for algorithm in (Algorithm.BFS, Algorithm.CONN):
                results[(name, algorithm, "small")] = _variable_runtime(
                    name, small_spec, small_graph, algorithm
                )
                results[(name, algorithm, "large")] = _variable_runtime(
                    name, large_spec, large_graph, algorithm
                )
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = [f"{'platform':<11}{'algorithm':<7}{'small [s]':>11}{'large [s]':>11}{'ratio':>7}"]
    for name in PLATFORMS:
        for algorithm in (Algorithm.BFS, Algorithm.CONN):
            small = results[(name, algorithm, "small")]
            large = results[(name, algorithm, "large")]
            lines.append(
                f"{name:<11}{algorithm.value:<7}{small:>11.2f}{large:>11.2f}"
                f"{large / small if small else float('nan'):>7.2f}"
            )
    print_table(
        "Ablation: variable runtime under joint graph+throughput scaling "
        "(ratio ~ workload growth, identically across platforms)",
        lines,
    )

    # The platform ordering is identical at both scale points.
    for algorithm in (Algorithm.BFS, Algorithm.CONN):
        small_order = sorted(
            PLATFORMS, key=lambda n: results[(n, algorithm, "small")]
        )
        large_order = sorted(
            PLATFORMS, key=lambda n: results[(n, algorithm, "large")]
        )
        assert small_order == large_order

    # Ratios agree across platforms within a factor ~2 (graph shape
    # changes slightly with R-MAT scale; gross divergence would mean
    # the scaled-testbed methodology distorts comparisons).
    for algorithm in (Algorithm.BFS, Algorithm.CONN):
        ratios = [
            results[(n, algorithm, "large")] / results[(n, algorithm, "small")]
            for n in PLATFORMS
        ]
        assert max(ratios) < 2.5 * min(ratios), ratios
