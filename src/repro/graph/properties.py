"""Structural graph properties used throughout the benchmark.

These are the characteristics the paper's Table 1 reports for real
graphs — vertex/edge counts, global clustering coefficient, average
(local) clustering coefficient, and degree assortativity — plus degree
histograms used by the distribution-fitting module.

All functions operate on the undirected view of the graph, matching
how the paper characterizes its datasets.

Every clustering number rests on one integer per vertex: the edges
among its neighbors. The references count it for the whole graph
with :func:`~repro.graph.kernels.triangle_links`; the platform
engines count it per vertex from shipped neighbor lists with
:func:`received_links`. The two stay separate code because the
references are the oracle the validator holds the engines to. Both
sides turn the count into a coefficient with :func:`lcc_value`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.graph.graph import Graph
from repro.graph.kernels import triangle_links

__all__ = [
    "GraphCharacteristics",
    "lcc_value",
    "received_links",
    "local_clustering_coefficient",
    "average_clustering_coefficient",
    "global_clustering_coefficient",
    "degree_assortativity",
    "degree_histogram",
    "graph_characteristics",
    "count_triangles",
]


@dataclass(frozen=True)
class GraphCharacteristics:
    """One row of the paper's Table 1."""

    name: str
    num_vertices: int
    num_edges: int
    global_clustering: float
    average_clustering: float
    assortativity: float

    def as_row(self) -> tuple:
        """Tuple in Table 1 column order."""
        return (
            self.name,
            self.num_vertices,
            self.num_edges,
            self.global_clustering,
            self.average_clustering,
            self.assortativity,
        )


def lcc_value(links: int, degree: int) -> float:
    """Coefficient from the integer pair count and the degree.

    ``links`` is the number of *unordered* connected neighbor pairs
    (each triangle through the vertex counts once). Using one shared
    float expression across the reference and all eight platforms
    keeps the outputs bit-for-bit comparable.
    """
    if degree < 2:
        return 0.0
    return 2.0 * links / (degree * (degree - 1))


def received_links(
    neighbors: Iterable[int], neighbor_lists: Iterable[Iterable[int]]
) -> int:
    """Edges among a vertex's neighbors, from the lists shipped to it.

    ``neighbor_lists`` are the adjacency lists the vertex's neighbors
    sent it. An edge ``{u, w}`` among ``neighbors`` arrives twice, as
    ``w`` in ``u``'s list and as ``u`` in ``w``'s, so the matches are
    halved. The platform engines count with this; the references use
    :func:`~repro.graph.kernels.triangle_links` instead.
    """
    own = set(neighbors)
    return sum(len(own.intersection(lst)) for lst in neighbor_lists) // 2


def _links_and_degrees(graph: Graph) -> tuple[Graph, list[int], list[int]]:
    """The undirected view, its per-vertex links, and its degrees."""
    undirected = graph.to_undirected()
    links = triangle_links(*undirected.csr())
    return undirected, links.tolist(), undirected.out_degrees().tolist()


def local_clustering_coefficient(graph: Graph, vertex: int) -> float:
    """Fraction of a vertex's neighbor pairs that are connected.

    Vertices with degree < 2 have coefficient 0, following the common
    convention (and networkx).
    """
    undirected, links, degrees = _links_and_degrees(graph)
    (index,) = undirected.indices_of([int(vertex)]).tolist()
    return lcc_value(links[index], degrees[index])


def average_clustering_coefficient(graph: Graph) -> float:
    """Mean of local clustering coefficients over all vertices.

    This is the "Avg. CC" column of Table 1 and the statistic the
    STATS algorithm reports.
    """
    undirected, links, degrees = _links_and_degrees(graph)
    if undirected.num_vertices == 0:
        return 0.0
    total = 0.0
    for vertex_links, degree in zip(links, degrees):
        total += lcc_value(vertex_links, degree)
    return total / undirected.num_vertices


def count_triangles(graph: Graph) -> int:
    """Number of triangles in the undirected view."""
    return int(triangle_links(*graph.to_undirected().csr()).sum()) // 3


def global_clustering_coefficient(graph: Graph) -> float:
    """Transitivity: ``3 * triangles / connected triplets``.

    This is the "Gl. CC" column of Table 1.
    """
    undirected = graph.to_undirected()
    degrees = undirected.degree_sequence()
    triplets = int(np.sum(degrees * (degrees - 1) // 2))
    if triplets == 0:
        return 0.0
    return 3.0 * count_triangles(undirected) / triplets


def degree_assortativity(graph: Graph) -> float:
    """Pearson correlation of degrees across edges (Newman's r).

    Positive values mean high-degree vertices attach to high-degree
    vertices; social networks are typically positive, web-like graphs
    negative (the "Asrt." column of Table 1). Returns ``nan`` for
    graphs where the correlation is undefined (e.g. regular graphs).
    """
    undirected = graph.to_undirected()
    if undirected.num_edges == 0:
        return float("nan")
    degrees = undirected.out_degrees().astype(np.float64)
    edges = undirected.edges
    # Each undirected edge contributes both orientations, making the
    # correlation symmetric.
    dx = degrees[undirected.indices_of(edges[:, 0])]
    dy = degrees[undirected.indices_of(edges[:, 1])]
    x = np.empty(undirected.num_edges * 2, dtype=np.float64)
    y = np.empty(undirected.num_edges * 2, dtype=np.float64)
    x[0::2], y[0::2] = dx, dy
    x[1::2], y[1::2] = dy, dx
    x_std = np.std(x)
    y_std = np.std(y)
    if x_std == 0 or y_std == 0:
        return float("nan")
    return float(np.mean((x - np.mean(x)) * (y - np.mean(y))) / (x_std * y_std))


def degree_histogram(graph: Graph) -> dict[int, int]:
    """Mapping from degree value to number of vertices with it."""
    degrees = graph.to_undirected().degree_sequence()
    values, counts = np.unique(degrees, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def graph_characteristics(graph: Graph, name: str = "") -> GraphCharacteristics:
    """Compute the full Table 1 row for a graph."""
    undirected = graph.to_undirected()
    return GraphCharacteristics(
        name=name,
        num_vertices=undirected.num_vertices,
        num_edges=undirected.num_edges,
        global_clustering=global_clustering_coefficient(undirected),
        average_clustering=average_clustering_coefficient(undirected),
        assortativity=degree_assortativity(undirected),
    )
