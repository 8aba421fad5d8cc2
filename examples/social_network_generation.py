"""Datagen scenario: generate social networks with controlled structure.

Demonstrates the paper's Section 2.2 extensions:

* pluggable degree distributions (Zeta, Geometric, empirical);
* structural post-processing toward a target clustering coefficient
  and assortativity sign via degree-preserving rewiring;
* degree-distribution fitting (which model best explains a graph?);
* deterministic block-parallel generation with per-hardware cost
  estimates (single node vs the 4-node cluster).

Run with::

    python examples/social_network_generation.py
"""

import numpy as np

from repro.datagen import (
    CLUSTER_4_NODES,
    SINGLE_NODE,
    Datagen,
    DatagenConfig,
    estimate_generation_time,
)
from repro.graph import graph_characteristics
from repro.graph.fitting import fit_degree_distribution


def generate_with_plugin(name: str, params: dict) -> None:
    """Generate one network and verify its degree distribution."""
    config = DatagenConfig(
        num_persons=5000,
        degree_distribution=name,
        distribution_params=params,
        seed=7,
    )
    graph = Datagen(config).generate()
    row = graph_characteristics(graph, f"datagen-{name}")
    print(f"\n=== {name} plugin {params} ===")
    print(
        f"persons={row.num_vertices} knows-edges={row.num_edges} "
        f"avg-clustering={row.average_clustering:.4f} "
        f"assortativity={row.assortativity:+.4f}"
    )

    # Which theoretical model explains the generated degrees best?
    degrees = graph.degree_sequence()
    fits = fit_degree_distribution(degrees[degrees >= 1])
    best = min(fits.values(), key=lambda fit: fit.aic)
    print(f"best-fitting degree model: {best.model} {best.params}")


def structural_targets() -> None:
    """Rewire a network toward a clustering target, preserving degrees."""
    base = DatagenConfig(num_persons=2000, seed=11)
    shaped = DatagenConfig(
        num_persons=2000,
        seed=11,
        target_clustering=0.25,
        assortativity_sign=1,
        rewiring_swaps=15000,
    )
    graph_base = Datagen(base).generate()
    graph_shaped = Datagen(shaped).generate()
    row_base = graph_characteristics(graph_base, "base")
    row_shaped = graph_characteristics(graph_shaped, "shaped")
    print("\n=== structural post-processing (hill-climbing rewiring) ===")
    print(
        f"before: avg-clustering={row_base.average_clustering:.4f} "
        f"assortativity={row_base.assortativity:+.4f}"
    )
    print(
        f"after:  avg-clustering={row_shaped.average_clustering:.4f} "
        f"assortativity={row_shaped.assortativity:+.4f} "
        f"(target clustering 0.25, positive assortativity)"
    )
    degrees_equal = graph_base.degrees() == graph_shaped.degrees()
    print(f"every vertex degree preserved: {degrees_equal}")


def hardware_estimates() -> None:
    """Where is your generation workload better off? (Figure 3)"""
    print("\n=== generation-time estimates (paper's two systems) ===")
    print(f"{'edges':>10} {'single node':>14} {'4-node cluster':>15}")
    for edges in (100e6, 500e6, 1.3e9, 5e9):
        single = estimate_generation_time(edges, SINGLE_NODE)["total"]
        cluster = estimate_generation_time(edges, CLUSTER_4_NODES)["total"]
        marker = "<- single wins" if single < cluster else "<- cluster wins"
        print(f"{edges / 1e6:8.0f}M {single:12.0f}s {cluster:14.0f}s  {marker}")


def main() -> None:
    generate_with_plugin("zeta", {"alpha": 1.7})
    generate_with_plugin("geometric", {"p": 0.12})
    # The empirical plugin reproduces an observed degree sequence.
    observed = np.concatenate([np.full(800, 2), np.full(150, 10), np.full(50, 40)])
    generate_with_plugin("empirical", {"observed_degrees": observed})
    structural_targets()
    hardware_estimates()


if __name__ == "__main__":
    main()
