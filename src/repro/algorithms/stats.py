"""STATS: general graph statistics.

The paper: "The general statistics (STATS) algorithm counts the
numbers of vertices and edges in the graph and computes the mean local
clustering coefficient."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.graph import Graph
from repro.graph.properties import average_clustering_coefficient

__all__ = ["GraphStats", "stats"]


@dataclass(frozen=True)
class GraphStats:
    """Output record of the STATS algorithm."""

    num_vertices: int
    num_edges: int
    mean_local_clustering: float

    @classmethod
    def from_sum(
        cls, num_vertices: int, num_edges: int, clustering_sum: float
    ) -> GraphStats:
        """The record of a platform that summed the local coefficients.

        The mean is over every vertex, and ``0.0`` on an empty graph.
        """
        return cls(
            num_vertices=num_vertices,
            num_edges=num_edges,
            mean_local_clustering=(
                clustering_sum / num_vertices if num_vertices else 0.0
            ),
        )


def stats(graph: Graph) -> GraphStats:
    """Compute vertex count, edge count, and mean local clustering.

    Edge count follows the graph's directedness: each undirected edge
    counts once, each arc of a directed graph counts once.
    """
    return GraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        mean_local_clustering=average_clustering_coefficient(graph),
    )
