"""Graph substrate for the Graphalytics reproduction.

This package provides the in-memory graph representation shared by the
data generator, the reference algorithms, and the simulated platforms,
plus edge-list I/O, synthetic graph generators, and structural property
computation (clustering coefficients, assortativity).

Everything here runs on numpy, the engines' link count
(:func:`~repro.graph.properties.csr_received_links`) included, so no
harness, engine or gate path imports scipy. Degree-distribution
fitting lives in :mod:`repro.graph.fitting` and is imported where it
is used: it loads ``scipy.stats`` and ``scipy.optimize``.
"""

from repro.graph.graph import Graph, GraphBuilder
from repro.graph.io import (
    read_edge_list,
    read_vertex_list,
    write_edge_list,
    write_vertex_list,
)
from repro.graph.properties import (
    average_clustering_coefficient,
    degree_assortativity,
    degree_histogram,
    global_clustering_coefficient,
    graph_characteristics,
    local_clustering_coefficient,
)
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    rmat_graph,
    watts_strogatz_graph,
)

__all__ = [
    "Graph",
    "GraphBuilder",
    "read_edge_list",
    "read_vertex_list",
    "write_edge_list",
    "write_vertex_list",
    "average_clustering_coefficient",
    "degree_assortativity",
    "degree_histogram",
    "global_clustering_coefficient",
    "graph_characteristics",
    "local_clustering_coefficient",
    "barabasi_albert_graph",
    "erdos_renyi_graph",
    "rmat_graph",
    "watts_strogatz_graph",
]
