"""Synthetic graph generators.

Provides the generator families the paper references as alternatives
to Datagen: the R-MAT / Kronecker model behind Graph500 workloads,
plus classic random-graph models (Erdős–Rényi, Watts–Strogatz,
Barabási–Albert) used for test fixtures and stand-in datasets.

All generators are deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph, GraphBuilder

__all__ = [
    "rmat_graph",
    "erdos_renyi_graph",
    "watts_strogatz_graph",
    "barabasi_albert_graph",
    "holme_kim_graph",
    "connected_caveman_graph",
    "grid_graph",
]

#: Graph500 reference R-MAT partition probabilities.
GRAPH500_PROBABILITIES = (0.57, 0.19, 0.19, 0.05)


def rmat_graph(
    scale: int,
    edge_factor: int = 16,
    probabilities: tuple[float, float, float, float] = GRAPH500_PROBABILITIES,
    seed: int = 0,
    directed: bool = False,
    bulk: bool = True,
) -> Graph:
    """Generate an R-MAT (recursive matrix) graph, Graph500 style.

    Parameters
    ----------
    scale:
        ``2**scale`` vertices. Graph500's scale-23 graph uses
        ``scale=23``; this reproduction runs reduced scales.
    edge_factor:
        Edges generated per vertex (before deduplication); Graph500
        uses 16.
    probabilities:
        The (a, b, c, d) quadrant probabilities of the recursive
        partition; must sum to 1.
    seed:
        Deterministic RNG seed.
    bulk:
        Feed the sampled edge arrays straight into :class:`Graph`
        (its constructor's vectorized self-loop drop + sort/dedup),
        which is what makes multi-million-edge scales practical;
        ``bulk=False`` keeps the per-edge :class:`GraphBuilder` path.
        Both produce the identical graph.

    Notes
    -----
    Duplicate edges and self-loops produced by the recursive process
    are discarded, as Graphalytics benchmarks simple graphs, so the
    final edge count is slightly below ``edge_factor * 2**scale``.
    """
    a, b, c, d = probabilities
    if not np.isclose(a + b + c + d, 1.0):
        raise ValueError("R-MAT probabilities must sum to 1")
    if scale < 1:
        raise ValueError("scale must be >= 1")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    num_edges = edge_factor * n

    sources = np.zeros(num_edges, dtype=np.int64)
    targets = np.zeros(num_edges, dtype=np.int64)
    # Vectorized recursive descent: at each of `scale` levels, every
    # edge independently picks one of the four quadrants. The
    # quadrant index is the count of partition boundaries (a, a+b,
    # a+b+c) below the draw; its high bit (quadrants c, d — the lower
    # row) is exactly ``draw > a+b``, and its low bit (quadrants b, d
    # — the right column) is the XOR of all three comparisons. Masked
    # in-place adds avoid materializing any int64 temporaries.
    t0, t1, t2 = a, a + b, a + b + c
    # Preallocated scratch: the loop runs `scale` times over
    # multi-million-element arrays, so reusing buffers (ufunc `out=`)
    # instead of allocating six temporaries per level keeps the
    # generator allocation-free and its wall time stable. Filling a
    # preallocated float64 buffer draws the identical stream as
    # ``rng.random(num_edges)``.
    draws = np.empty(num_edges)
    c0 = np.empty(num_edges, dtype=bool)
    c1 = np.empty(num_edges, dtype=bool)
    c2 = np.empty(num_edges, dtype=bool)
    for level in range(scale):
        rng.random(out=draws)
        np.greater(draws, t0, out=c0)
        np.greater(draws, t1, out=c1)
        np.greater(draws, t2, out=c2)
        bit = 1 << (scale - level - 1)
        np.add(sources, bit, out=sources, where=c1)
        np.logical_xor(c0, c1, out=c0)
        np.logical_xor(c0, c2, out=c0)
        np.add(targets, bit, out=targets, where=c0)

    if bulk:
        return Graph(
            np.arange(n, dtype=np.int64),
            np.column_stack([sources, targets]),
            directed=directed,
        )
    builder = GraphBuilder(directed=directed)
    builder.add_vertices(range(n))
    builder.add_edges(zip(sources.tolist(), targets.tolist()))
    return builder.build()


def erdos_renyi_graph(n: int, p: float, seed: int = 0, directed: bool = False) -> Graph:
    """G(n, p) random graph with edge probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(directed=directed)
    builder.add_vertices(range(n))
    if directed:
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        sources, targets = np.nonzero(mask)
        builder.add_edges(zip(sources.tolist(), targets.tolist()))
    else:
        sources, targets = np.triu_indices(n, k=1)
        keep = rng.random(len(sources)) < p
        builder.add_edges(zip(sources[keep].tolist(), targets[keep].tolist()))
    return builder.build()


def watts_strogatz_graph(n: int, k: int, p: float, seed: int = 0) -> Graph:
    """Watts–Strogatz small-world graph (high clustering coefficient).

    Each vertex starts connected to its ``k`` nearest ring neighbors
    (``k`` must be even), then each edge is rewired with probability
    ``p`` to a uniformly random target.
    """
    if k % 2 != 0:
        raise ValueError("k must be even")
    if k >= n:
        raise ValueError("k must be < n")
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(directed=False)
    builder.add_vertices(range(n))
    for offset in range(1, k // 2 + 1):
        for vertex in range(n):
            target = (vertex + offset) % n
            if rng.random() < p:
                # Rewire to a random non-self, non-duplicate target.
                for _attempt in range(8):
                    candidate = int(rng.integers(n))
                    if candidate != vertex and not builder.has_edge(vertex, candidate):
                        target = candidate
                        break
            builder.add_edge(vertex, target)
    return builder.build()


def connected_caveman_graph(num_cliques: int, clique_size: int) -> Graph:
    """Connected caveman graph: cliques joined in a ring.

    The canonical community-structured graph — the regime where the
    paper's "advanced (e.g., min-cut) graph partitioning methods"
    choke-point remedy pays off most.
    """
    if num_cliques < 2 or clique_size < 2:
        raise ValueError("need >= 2 cliques of size >= 2")
    builder = GraphBuilder(directed=False)
    for clique in range(num_cliques):
        base = clique * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                builder.add_edge(base + i, base + j)
        neighbor_base = ((clique + 1) % num_cliques) * clique_size
        builder.add_edge(base, neighbor_base)
    return builder.build()


def holme_kim_graph(n: int, m: int, triad_probability: float, seed: int = 0) -> Graph:
    """Holme–Kim powerlaw-cluster graph: BA with triad formation.

    Like Barabási–Albert, but after each preferential-attachment link
    to a target ``t``, with probability ``triad_probability`` the next
    link goes to a random neighbor of ``t`` instead — closing a
    triangle. This yields a heavy-tailed degree distribution with a
    *tunable* clustering coefficient, which several Table 1 stand-ins
    need (real web/social graphs combine both properties).
    """
    if m < 1 or m >= n:
        raise ValueError("need 1 <= m < n")
    if not 0.0 <= triad_probability <= 1.0:
        raise ValueError("triad_probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(directed=False)
    builder.add_vertices(range(n))
    repeated: list[int] = list(range(m))
    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}

    def link(a: int, b: int) -> bool:
        if builder.add_edge(a, b):
            adjacency[a].append(b)
            adjacency[b].append(a)
            repeated.append(a)
            repeated.append(b)
            return True
        return False

    for vertex in range(m, n):
        last_target: int | None = None
        links_made = 0
        attempts = 0
        while links_made < m and attempts < 20 * m:
            attempts += 1
            candidate: int | None = None
            if (
                last_target is not None
                and adjacency[last_target]
                and rng.random() < triad_probability
            ):
                # Triad step: befriend a friend of the last target.
                neighbors = adjacency[last_target]
                candidate = neighbors[int(rng.integers(len(neighbors)))]
            else:
                candidate = repeated[int(rng.integers(len(repeated)))]
            if candidate == vertex:
                continue
            if link(vertex, candidate):
                links_made += 1
                last_target = candidate
    return builder.build()


def barabasi_albert_graph(n: int, m: int, seed: int = 0) -> Graph:
    """Barabási–Albert preferential attachment graph.

    Produces a heavy-tailed degree distribution, the shape the paper's
    choke-point discussion ("skewed execution intensity") cares about.
    """
    if m < 1 or m >= n:
        raise ValueError("need 1 <= m < n")
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(directed=False)
    builder.add_vertices(range(n))
    # Repeated-endpoints list implements preferential attachment.
    repeated: list[int] = []
    for seed_vertex in range(m):
        repeated.append(seed_vertex)
    for vertex in range(m, n):
        targets: set[int] = set()
        while len(targets) < m:
            if repeated and rng.random() < 0.9:
                candidate = repeated[int(rng.integers(len(repeated)))]
            else:
                candidate = int(rng.integers(vertex))
            if candidate != vertex:
                targets.add(candidate)
        for target in targets:
            builder.add_edge(vertex, target)
            repeated.append(vertex)
            repeated.append(target)
    return builder.build()


def grid_graph(
    side: int,
    diagonal_probability: float = 0.0,
    seed: int = 0,
    bulk: bool = True,
) -> Graph:
    """2D lattice: the road-network-like graph profile.

    Road networks are the shape the power-law generators cannot
    produce — near-uniform low degree (at most 4 here, plus optional
    sparse diagonals), high diameter (``2*(side-1)`` for the pure
    lattice), and essentially no degree skew. "Revisiting Graph
    Analytics Benchmark" motivates including exactly this profile so
    frontier algorithms are not only measured in the small-diameter
    regime; the ``dataset-shape-bias`` audit rule checks that a suite
    includes at least one such dataset.
    """
    if side < 2:
        raise ValueError("side must be >= 2")
    rng = np.random.default_rng(seed)
    if bulk:
        # Row-major lattice edges in three vectorized families. The
        # diagonal draws replay the scalar path's RNG stream exactly:
        # it consumes one uniform per interior cell in row-major
        # order (and none at all when the probability is zero).
        vertices = np.arange(side * side, dtype=np.int64)
        grid = vertices.reshape(side, side)
        right = grid[:, :-1].ravel()
        down = grid[:-1, :].ravel()
        edge_groups = [
            np.column_stack([right, right + 1]),
            np.column_stack([down, down + side]),
        ]
        if diagonal_probability > 0.0:
            interior = grid[:-1, :-1].ravel()
            keep = rng.random(interior.size) < diagonal_probability
            shortcut = interior[keep]
            edge_groups.append(
                np.column_stack([shortcut, shortcut + side + 1])
            )
        return Graph(vertices, np.concatenate(edge_groups), directed=False)
    builder = GraphBuilder(directed=False)
    builder.add_vertices(range(side * side))
    for row in range(side):
        for column in range(side):
            vertex = row * side + column
            if column + 1 < side:
                builder.add_edge(vertex, vertex + 1)
            if row + 1 < side:
                builder.add_edge(vertex, vertex + side)
            if (
                diagonal_probability > 0.0
                and column + 1 < side
                and row + 1 < side
                and rng.random() < diagonal_probability
            ):
                # Occasional shortcut, like a highway ramp; keeps the
                # profile road-like while breaking perfect regularity.
                builder.add_edge(vertex, vertex + side + 1)
    return builder.build()
