"""Platform comparison with choke-point analysis (Figures 4 and 5).

Benchmarks all four platforms on Graph500-style, Patents-style, and
SNB-style graphs, prints the runtime matrix and the CONN kTEPS table,
and then explains each run through the Section 2.1 choke points: where
its simulated seconds went (compute, locality, skew, memory, network,
disk, barrier, startup) and which part dominated.

Run with::

    python examples/platform_comparison.py
"""

from repro.core.benchmark import BenchmarkCore
from repro.core.chokepoints import analyze_profile
from repro.core.cost import ClusterSpec
from repro.core.report import ReportGenerator
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm
from repro.datasets import load_dataset
from repro.platforms.registry import create_platform_fleet


def main() -> None:
    distributed = ClusterSpec.paper_distributed()
    # Every registered platform: the paper's four plus the announced
    # extensions (GraphLab, Virtuoso, the GPU). Single-machine
    # platforms get their built-in default machines.
    platforms = create_platform_fleet(distributed)
    graphs = {
        "graph500-9": load_dataset("graph500-9"),
        "patents*": load_dataset("patents"),
        "snb*": load_dataset("snb-2000"),
    }

    core = BenchmarkCore(platforms, graphs, validator=OutputValidator())
    suite = core.run()

    generator = ReportGenerator()
    print("Runtime [s] (algorithm x graph x platform); — marks failures")
    print(generator.runtime_matrix(suite))
    print()
    print(generator.kteps_matrix(suite, Algorithm.CONN))

    print("\nChoke-point analysis (largest part of each run's time):")
    print(
        f"{'platform':<12}{'algorithm':<8}{'graph':<14}"
        f"{'dominant':<10}{'skew':>7}{'tail':>6}  time"
    )
    for result in suite.successes():
        report = analyze_profile(result.run.profile)
        print(
            f"{result.platform:<12}{result.algorithm.value:<8}"
            f"{result.graph_name:<14}{report.breakdown.dominant():<10}"
            f"{report.mean_skew:>7.2f}{report.tail_rounds:>6}"
            f"  {report.breakdown.describe()}"
        )


if __name__ == "__main__":
    main()
