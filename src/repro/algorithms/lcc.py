"""LCC: per-vertex local clustering coefficient.

LDBC Graphalytics' triangle workload. Where STATS reports one *mean*
clustering number for the whole graph, LCC outputs the coefficient of
every vertex — the same quantity the paper's Table 1 averages — which
makes it random-access bound: every vertex intersects its neighbor
lists with its neighbors' neighbor lists.

The coefficient of a vertex ``v`` with degree ``k`` (undirected view)
is ``2 * links / (k * (k - 1))``, where ``links`` counts connected
neighbor pairs once; vertices with ``k < 2`` score ``0.0``, matching
:func:`repro.graph.properties.local_clustering_coefficient` and the
networkx convention.

Cross-platform float identity: every platform and the reference count
the integer ``links`` and then call :func:`lcc_value`, so the resulting
floats are bitwise identical and the validator compares LCC outputs
exactly. The reference counts with
:func:`repro.graph.kernels.triangle_links`; the platforms count from
shipped neighbor lists with :func:`repro.graph.properties.received_links`.
"""

from __future__ import annotations

from repro.graph.graph import Graph
from repro.graph.kernels import triangle_links
from repro.graph.properties import lcc_value

__all__ = ["lcc", "lcc_value"]


def lcc(graph: Graph) -> dict[int, float]:
    """Local clustering coefficient of every vertex.

    Returns ``{vertex: coefficient}`` over the undirected view.
    """
    undirected = graph.to_undirected()
    links = triangle_links(*undirected.csr())
    return {
        vertex: lcc_value(vertex_links, degree)
        for vertex, vertex_links, degree in zip(
            undirected.vertices.tolist(),
            links.tolist(),
            undirected.out_degrees().tolist(),
        )
    }
