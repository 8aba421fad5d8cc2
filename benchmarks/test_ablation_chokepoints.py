"""Ablation: the Section 2.1 choke points, made measurable.

The paper's methodological claim is that its workloads *stress the
identified choke points*. This ablation demonstrates each choke point
as a measurable contrast on the simulated platforms:

* **excessive network utilization** — STATS (adjacency exchange)
  moves orders of magnitude more bytes than BFS on the same graph,
  and message combining (Giraph's combiner) cuts CONN traffic;
* **skewed execution intensity** — per-round worker skew is higher on
  the hub-heavy Graph500 R-MAT graph than on the Patents graph;
* **convergence tail** — CONN spends its final rounds with almost no
  active vertices, where barrier latency dominates;
* **poor access locality** — the graph database's pointer chasing is
  dominated by random accesses, unlike the sequential MapReduce scan.
"""

import pytest

from benchmarks.conftest import print_table
from repro.core.chokepoints import analyze_profile
from repro.core.workload import Algorithm, AlgorithmParams
from repro.platforms.registry import create_platform

PARAMS = AlgorithmParams()


def _profile(platform, graph, name, algorithm):
    handle = platform.upload_graph(name, graph)
    try:
        return platform.run_algorithm(handle, algorithm, PARAMS).profile
    finally:
        platform.delete_graph(handle)


@pytest.mark.benchmark(group="ablation-chokepoints")
def test_ablation_chokepoints(
    benchmark, benchmark_graphs, distributed_spec, single_node_spec
):
    def run_all(tail_threshold=0.05):
        giraph = create_platform("giraph", distributed_spec)
        mapreduce = create_platform("mapreduce", distributed_spec)
        neo4j = create_platform("neo4j", single_node_spec)
        g500 = benchmark_graphs["graph500-12"]
        patents = benchmark_graphs["patents*"]
        return {
            "stats-g500": analyze_profile(
                _profile(giraph, g500, "g", Algorithm.STATS), tail_threshold
            ),
            "bfs-g500": analyze_profile(
                _profile(giraph, g500, "g", Algorithm.BFS), tail_threshold
            ),
            "conn-g500": analyze_profile(
                _profile(giraph, g500, "g", Algorithm.CONN), tail_threshold
            ),
            "conn-patents": analyze_profile(
                _profile(giraph, patents, "p", Algorithm.CONN), tail_threshold
            ),
            "db-bfs": analyze_profile(
                _profile(neo4j, g500, "g", Algorithm.BFS)
            ),
            "mr-bfs": analyze_profile(
                _profile(mapreduce, g500, "g", Algorithm.BFS)
            ),
        }

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        f"{'run':<14}{'net MiB':>9}{'net-share':>10}{'skew':>7}"
        f"{'tail':>6}{'rand-share':>11}{'dominant':>10}"
    ]
    for name, report in reports.items():
        lines.append(
            f"{name:<14}{report.total_remote_bytes / 2**20:>9.2f}"
            f"{report.breakdown.share('network'):>10.2f}{report.mean_skew:>7.2f}"
            f"{report.tail_rounds:>6}{report.random_access_share:>11.2f}"
            f"{report.breakdown.dominant():>10}"
        )
    print_table("Choke-point indicators per run", lines)

    # Network: STATS moves far more bytes than BFS on the same graph.
    assert (
        reports["stats-g500"].total_remote_bytes
        > 20 * reports["bfs-g500"].total_remote_bytes
    )
    assert reports["stats-g500"].breakdown.dominant() == "network"

    # Skew: the hub-heavy R-MAT graph beats the Patents graph on the
    # round doing the most work (the tail rounds of a tiny graph are
    # noisy, so the busiest round isolates the hub effect).
    assert (
        reports["conn-g500"].busiest_round_skew
        > reports["conn-patents"].busiest_round_skew
    )

    # Convergence tail: CONN has low-activity final rounds (under 5%
    # of the peak frontier) where barriers dominate the useful work.
    assert reports["conn-g500"].tail_rounds >= 1
    assert reports["conn-g500"].breakdown.share("barrier") > 0.05

    # Locality: pointer chasing vs streaming.
    assert reports["db-bfs"].random_access_share > 0.9
    assert reports["mr-bfs"].random_access_share < 0.1


@pytest.mark.benchmark(group="ablation-chokepoints")
def test_ablation_message_combining(benchmark, benchmark_graphs, distributed_spec):
    """Combiners are a real network optimization (choke-point remedy)."""
    from repro.platforms.pregel.driver import GiraphPlatform
    from repro.platforms.pregel.engine import PregelEngine
    from repro.platforms.pregel.programs import ConnProgram

    class UncombinedConn(ConnProgram):
        """CONN without Giraph's min combiner."""

        def combiner(self):
            """Disabled for the ablation."""
            return None

    graph = benchmark_graphs["graph500-12"]

    def run_both():
        combined_engine = PregelEngine(graph, distributed_spec)
        combined_engine.run(ConnProgram())
        uncombined_engine = PregelEngine(graph, distributed_spec)
        uncombined_engine.run(UncombinedConn())
        return (
            combined_engine.meter.profile,
            uncombined_engine.meter.profile,
        )

    combined, uncombined = benchmark.pedantic(run_both, rounds=1, iterations=1)

    print_table(
        "Ablation: CONN message combining",
        [
            f"with combiner:    {combined.total_remote_bytes / 2**20:8.2f} MiB, "
            f"{combined.simulated_seconds:7.1f} s",
            f"without combiner: {uncombined.total_remote_bytes / 2**20:8.2f} MiB, "
            f"{uncombined.simulated_seconds:7.1f} s",
        ],
    )

    # Combining strictly reduces traffic and time on a hubby graph.
    assert combined.total_remote_bytes < 0.8 * uncombined.total_remote_bytes
    assert combined.simulated_seconds <= uncombined.simulated_seconds


@pytest.mark.benchmark(group="ablation-chokepoints")
def test_ablation_partitioning(benchmark, distributed_spec):
    """Min-cut-style partitioning is a real network remedy.

    The paper names "advanced (e.g., min-cut) graph partitioning
    methods" among the remedies for the network choke point. CONN on
    a community-structured graph: streaming-LDG placement versus
    Giraph's default hash placement, same engine, same outputs.
    """
    from repro.core.cost import CostMeter
    from repro.graph.generators import connected_caveman_graph
    from repro.platforms.pregel.engine import PregelEngine
    from repro.platforms.pregel.partitioning import (
        edge_cut_fraction,
        greedy_partition,
        hash_partition,
    )
    from repro.platforms.pregel.programs import ConnProgram

    graph = connected_caveman_graph(120, 16)

    def run_both():
        results = {}
        for label, strategy in (("hash", hash_partition), ("greedy", greedy_partition)):
            placement = strategy(graph, distributed_spec.num_workers)
            meter = CostMeter(distributed_spec)
            outcome = PregelEngine(
                graph, distributed_spec, meter, partition=placement
            ).run(ConnProgram())
            results[label] = (
                edge_cut_fraction(graph, placement),
                meter.profile.total_remote_bytes,
                outcome.values,
            )
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    print_table(
        "Ablation: partitioning strategy (CONN on a community graph)",
        [
            f"{label:<8} edge-cut={cut:6.3f}  remote={remote / 2**20:8.3f} MiB"
            for label, (cut, remote, _values) in results.items()
        ],
    )

    hash_cut, hash_bytes, hash_values = results["hash"]
    greedy_cut, greedy_bytes, greedy_values = results["greedy"]
    # Same output either way; an order of magnitude less cut and far
    # less traffic with the min-cut-style placement.
    assert greedy_values == hash_values
    assert greedy_cut < 0.25 * hash_cut
    assert greedy_bytes < 0.5 * hash_bytes


@pytest.mark.benchmark(group="ablation-chokepoints")
def test_ablation_remedies(benchmark, distributed_spec):
    """The paper's other named remedies, measured.

    Section 2.1 suggests, for the skew/synchronization choke point,
    "the use of asynchronous distributed query processing, and/or
    adaptive switching of distributed computation to central
    computation to handle iterations with little work". Both are
    implemented; this bench quantifies them on a long-tail workload
    (CONN on a high-diameter graph), where barrier latency dominates.
    """
    from repro.core.cost import CostMeter
    from repro.graph.graph import Graph
    from repro.platforms.gas.engine import GASEngine
    from repro.platforms.gas.programs import GASConnProgram
    from repro.platforms.pregel.engine import PregelEngine
    from repro.platforms.pregel.programs import ConnProgram

    # A 360-vertex ring: diameter 180, the worst case for barriered
    # label propagation (every round moves the minimum label one hop).
    ring = Graph.from_edges([(i, (i + 1) % 360) for i in range(360)])

    def run_all():
        results = {}
        meter = CostMeter(distributed_spec)
        sync = PregelEngine(ring, distributed_spec, meter).run(ConnProgram())
        results["pregel-sync"] = (meter.profile, sync.supersteps, sync.values)

        meter = CostMeter(distributed_spec)
        adaptive = PregelEngine(
            ring, distributed_spec, meter, adaptive_central_fraction=0.5
        ).run(ConnProgram())
        results["pregel-adaptive"] = (
            meter.profile,
            adaptive.supersteps,
            adaptive.values,
        )

        meter = CostMeter(distributed_spec)
        asynchronous = GASEngine(ring, distributed_spec, meter).run_async(
            GASConnProgram()
        )
        results["gas-async"] = (
            meter.profile,
            asynchronous.rounds,
            asynchronous.values,
        )
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_table(
        "Ablation: synchronization remedies (CONN on a diameter-180 ring)",
        [
            f"{label:<16} rounds={rounds:>5}  simulated={profile.simulated_seconds:9.1f} s"
            for label, (profile, rounds, _values) in results.items()
        ],
    )

    sync_profile, sync_rounds, sync_values = results["pregel-sync"]
    adaptive_profile, _adaptive_rounds, adaptive_values = results["pregel-adaptive"]
    async_profile, async_rounds, async_values = results["gas-async"]

    # All three compute the same components.
    assert adaptive_values == sync_values
    assert async_values == sync_values

    # Adaptive central computation trims the barrier-bound tail.
    assert (
        adaptive_profile.simulated_seconds < 0.8 * sync_profile.simulated_seconds
    )
    # Asynchronous sweeps collapse ~180 barriered rounds to a handful.
    assert async_rounds < sync_rounds / 20
    assert async_profile.simulated_seconds < 0.2 * sync_profile.simulated_seconds
