"""Degree-preserving rewiring toward structural targets.

The paper: "for Graphalytics we plan to extend the current windowed
based edge generation process of Datagen, to allow the generation of
graphs with a target average clustering coefficient, but also to
decide whether the assortativity is positive or negative, while
preserving the degree distribution of the graph. We envision this
process as a post processing step where the graph is iteratively
rewired until the desired values are achieved, in a hill climbing
fashion."

This module implements exactly that: double-edge swaps — which
provably preserve every vertex degree — proposed at random and
accepted only when they reduce a weighted objective combining the
distance to the target average clustering coefficient and a penalty
for the wrong assortativity sign (or distance to a target value).
Both statistics are maintained incrementally, so a swap costs
O(degree) set operations rather than a full recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.graph.kernels import triangle_links

__all__ = ["RewiringResult", "rewire_to_target"]


@dataclass(frozen=True)
class RewiringResult:
    """Outcome of a rewiring run."""

    graph: Graph
    initial_clustering: float
    final_clustering: float
    initial_assortativity: float
    final_assortativity: float
    swaps_attempted: int
    swaps_accepted: int
    converged: bool


class _RewiringState:
    """Mutable adjacency with incremental avg-CC and assortativity.

    Tracks ``cc_sum``, the sum over vertices of
    ``2 * closed[v] / (deg_v * (deg_v - 1))``, where ``closed[v]`` is
    the number of edges among v's neighbors (counted once, up front,
    by :func:`~repro.graph.kernels.triangle_links`); each edge swap
    then adjusts it by deltas. Because swaps preserve degrees, the
    assortativity denominator is constant and only ``sum over edges of
    deg(u) * deg(v)`` needs maintenance.
    """

    def __init__(self, graph: Graph):
        undirected = graph.to_undirected()
        self.adjacency: dict[int, set[int]] = {
            int(v): set(int(u) for u in undirected.neighbors(int(v)))
            for v in undirected.vertices
        }
        self.edges: list[tuple[int, int]] = list(undirected.iter_edges())
        self.edge_index = {edge: i for i, edge in enumerate(self.edges)}
        self.degree = {v: len(neighbors) for v, neighbors in self.adjacency.items()}
        self.n = len(self.adjacency)
        self.m = len(self.edges)

        # Clustering bookkeeping.
        closed = triangle_links(*undirected.csr()).tolist()
        self._inv_pairs = {
            v: (2.0 / (d * (d - 1)) if d >= 2 else 0.0)
            for v, d in self.degree.items()
        }
        self.cc_sum = sum(
            links * self._inv_pairs[v] for v, links in zip(self.adjacency, closed)
        )

        # Assortativity bookkeeping (degrees are invariant under swaps).
        degrees = np.array([self.degree[v] for v in self.adjacency], dtype=np.float64)
        m = float(self.m) if self.m else 1.0
        self.sum_dd = float(
            sum(self.degree[u] * self.degree[v] for u, v in self.edges)
        )
        sum_d2 = float(np.sum(degrees ** 2))
        sum_d3 = float(np.sum(degrees ** 3))
        self._assort_mean = sum_d2 / (2.0 * m)
        self._assort_var = sum_d3 / (2.0 * m) - self._assort_mean ** 2

    # -- statistics ----------------------------------------------------

    def average_clustering(self) -> float:
        """Current average clustering coefficient."""
        return self.cc_sum / self.n if self.n else 0.0

    def assortativity(self) -> float:
        """Current degree assortativity (nan if undefined)."""
        if self.m == 0 or self._assort_var <= 0:
            return float("nan")
        return (self.sum_dd / self.m - self._assort_mean ** 2) / self._assort_var

    # -- incremental edge operations ------------------------------------

    def _delta_remove(self, u: int, v: int) -> float:
        """Change in cc_sum if edge (u, v) were removed (no mutation)."""
        common = self.adjacency[u] & self.adjacency[v]
        delta = -len(common) * (self._inv_pairs[u] + self._inv_pairs[v])
        for w in common:
            delta -= self._inv_pairs[w]
        return delta

    def _delta_add(self, u: int, v: int) -> float:
        """Change in cc_sum if edge (u, v) were added (no mutation)."""
        common = self.adjacency[u] & self.adjacency[v]
        delta = len(common) * (self._inv_pairs[u] + self._inv_pairs[v])
        for w in common:
            delta += self._inv_pairs[w]
        return delta

    def remove_edge(self, u: int, v: int) -> None:
        """Remove an edge, updating both statistics incrementally."""
        self.cc_sum += self._delta_remove(u, v)
        self.adjacency[u].discard(v)
        self.adjacency[v].discard(u)
        self.sum_dd -= self.degree[u] * self.degree[v]
        key = (u, v) if u <= v else (v, u)
        index = self.edge_index.pop(key)
        last = self.edges[-1]
        self.edges[index] = last
        self.edges.pop()
        if last != key:
            self.edge_index[last] = index

    def add_edge(self, u: int, v: int) -> None:
        """Add an edge, updating both statistics incrementally."""
        self.cc_sum += self._delta_add(u, v)
        self.adjacency[u].add(v)
        self.adjacency[v].add(u)
        self.sum_dd += self.degree[u] * self.degree[v]
        key = (u, v) if u <= v else (v, u)
        self.edge_index[key] = len(self.edges)
        self.edges.append(key)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge is currently present."""
        return v in self.adjacency[u]

    def to_graph(self) -> Graph:
        """Freeze the current adjacency into an immutable Graph."""
        return Graph(sorted(self.adjacency), self.edges, directed=False)


def _objective(
    clustering: float,
    assortativity: float,
    target_clustering: float | None,
    target_assortativity: float | None,
    assortativity_sign: int,
) -> float:
    value = 0.0
    if target_clustering is not None:
        value += abs(clustering - target_clustering)
    if target_assortativity is not None:
        value += abs(assortativity - target_assortativity)
    elif assortativity_sign:
        # Penalize the wrong sign; a margin of 0.02 avoids hovering at 0.
        if assortativity_sign > 0:
            value += max(0.0, 0.02 - assortativity)
        else:
            value += max(0.0, assortativity + 0.02)
    return value


def rewire_to_target(
    graph: Graph,
    target_clustering: float | None = None,
    target_assortativity: float | None = None,
    assortativity_sign: int = 0,
    max_swaps: int = 20000,
    tolerance: float = 0.005,
    seed: int = 0,
) -> RewiringResult:
    """Hill-climb the graph toward structural targets via edge swaps.

    Parameters
    ----------
    graph:
        Input graph (treated as undirected). Never mutated; a rewired
        copy is returned.
    target_clustering:
        Desired average clustering coefficient, or ``None`` to leave
        clustering unconstrained.
    target_assortativity:
        Desired assortativity value; overrides ``assortativity_sign``.
    assortativity_sign:
        +1 / -1 to request a positive / negative assortativity without
        pinning a value; 0 to leave it unconstrained.
    max_swaps:
        Maximum number of proposed double-edge swaps.
    tolerance:
        Stop early once the objective falls below this value.
    seed:
        Determinism seed.

    Returns
    -------
    RewiringResult
        The rewired graph plus before/after statistics. The degree of
        every vertex is identical to the input graph's (the defining
        invariant of double-edge swaps; property-tested).
    """
    if target_clustering is not None and not 0.0 <= target_clustering <= 1.0:
        raise ValueError("target_clustering must be in [0, 1]")
    if assortativity_sign not in (-1, 0, 1):
        raise ValueError("assortativity_sign must be -1, 0, or +1")
    state = _RewiringState(graph)
    initial_cc = state.average_clustering()
    initial_assort = state.assortativity()
    rng = np.random.default_rng(seed)

    best = _objective(initial_cc, initial_assort, target_clustering,
                      target_assortativity, assortativity_sign)
    attempted = accepted = 0
    converged = best <= tolerance
    while attempted < max_swaps and not converged and state.m >= 2:
        attempted += 1
        i, j = rng.integers(0, state.m, size=2)
        if i == j:
            continue
        a, b = state.edges[int(i)]
        c, d = state.edges[int(j)]
        # Randomly choose one of the two swap orientations.
        if rng.random() < 0.5:
            new_edges = ((a, d), (c, b))
        else:
            new_edges = ((a, c), (b, d))
        (p, q), (r, s) = new_edges
        if len({a, b, c, d}) < 4:
            continue
        if state.has_edge(p, q) or state.has_edge(r, s):
            continue
        state.remove_edge(a, b)
        state.remove_edge(c, d)
        state.add_edge(p, q)
        state.add_edge(r, s)
        candidate = _objective(
            state.average_clustering(), state.assortativity(),
            target_clustering, target_assortativity, assortativity_sign,
        )
        if candidate < best:
            best = candidate
            accepted += 1
            converged = best <= tolerance
        else:
            # Revert: hill climbing only keeps improving moves.
            state.remove_edge(p, q)
            state.remove_edge(r, s)
            state.add_edge(a, b)
            state.add_edge(c, d)

    return RewiringResult(
        graph=state.to_graph(),
        initial_clustering=initial_cc,
        final_clustering=state.average_clustering(),
        initial_assortativity=initial_assort,
        final_assortativity=state.assortativity(),
        swaps_attempted=attempted,
        swaps_accepted=accepted,
        converged=converged,
    )
