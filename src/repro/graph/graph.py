"""Core graph data structure.

The :class:`Graph` class is the canonical in-memory representation used
throughout the reproduction: a frozen, CSR-backed (compressed sparse
row) graph with integer vertex identifiers. Graphs are built through
:class:`GraphBuilder` (or the convenience constructors
:meth:`Graph.from_edges` and :meth:`Graph.from_adjacency`) and are
immutable afterwards, which makes it safe to share one graph instance
between the benchmark harness and several simulated platforms.

Vertex identifiers are arbitrary non-negative integers; they do not
need to be dense. Internally vertices are mapped to dense indices so
that adjacency can be stored in two numpy arrays (offsets + targets),
which keeps even multi-million-edge graphs comfortably in memory.

A graph holds no self-loop: the benchmark operates on simple graphs,
and the constructor drops every edge whose endpoints are equal, so
every engine that reads the graph sees the same arcs.

Graphs may optionally carry **edge weights** (one float per edge,
required by the SSSP workload of LDBC Graphalytics). Weights ride
alongside the edge list, survive :meth:`Graph.save`/:meth:`Graph.load`
(on-disk format v2), participate in :meth:`Graph.content_key`, and
propagate through the undirected view. When duplicate edges are
supplied with different weights, the minimum wins — the
shortest-path-relevant value, and a deterministic choice.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.graph.kernels import group_reduce

__all__ = ["Graph", "GraphBuilder"]

#: On-disk layout version for :meth:`Graph.save` (unweighted graphs).
GRAPH_FORMAT = "graphalytics-graph/1"
#: On-disk layout version for weighted graphs (adds ``weights.npy``).
#: Unweighted graphs keep writing v1 so existing cache entries stay
#: valid byte for byte.
GRAPH_FORMAT_WEIGHTED = "graphalytics-graph/2"


class GraphBuilder:
    """Mutable accumulator used to construct a :class:`Graph`.

    The builder deduplicates edges and ignores self-loops, mirroring
    how Graphalytics preprocesses its datasets (the benchmark operates
    on simple graphs).

    Parameters
    ----------
    directed:
        Whether the resulting graph is directed. In an undirected
        graph, ``add_edge(u, v)`` and ``add_edge(v, u)`` are the same
        edge.
    """

    def __init__(self, directed: bool = False):
        self.directed = directed
        self._vertices: set[int] = set()
        self._edges: set[tuple[int, int]] = set()
        self._weights: dict[tuple[int, int], float] = {}

    def add_vertex(self, vertex: int) -> None:
        """Register a vertex (possibly isolated)."""
        if vertex < 0:
            raise ValueError(f"vertex ids must be non-negative, got {vertex}")
        self._vertices.add(int(vertex))

    def add_vertices(self, vertices: Iterable[int]) -> None:
        """Register many vertices at once."""
        for vertex in vertices:
            self.add_vertex(vertex)

    def add_edge(
        self, source: int, target: int, weight: float | None = None
    ) -> bool:
        """Add an edge; returns ``True`` if it was new.

        Self-loops are dropped (returning ``False``). When a
        ``weight`` is supplied for an edge that already exists, the
        minimum of the two weights is kept (duplicate-edge resolution
        for weighted datasets).
        """
        source = int(source)
        target = int(target)
        if source < 0 or target < 0:
            raise ValueError("vertex ids must be non-negative")
        if source == target:
            return False
        self._vertices.add(source)
        self._vertices.add(target)
        key = (source, target)
        if not self.directed and source > target:
            key = (target, source)
        if weight is not None:
            weight = float(weight)
            existing = self._weights.get(key)
            self._weights[key] = (
                weight if existing is None else min(existing, weight)
            )
        if key in self._edges:
            return False
        self._edges.add(key)
        return True

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        """Add many edges; returns the number of new edges."""
        added = 0
        for source, target in edges:
            if self.add_edge(source, target):
                added += 1
        return added

    def add_weighted_edges(
        self, edges: Iterable[tuple[int, int, float]]
    ) -> int:
        """Add many ``(source, target, weight)`` edges at once."""
        added = 0
        for source, target, weight in edges:
            if self.add_edge(source, target, weight=weight):
                added += 1
        return added

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the edge is already present in the builder."""
        key = (source, target)
        if not self.directed and source > target:
            key = (target, source)
        return key in self._edges

    def remove_edge(self, source: int, target: int) -> bool:
        """Remove an edge if present; returns ``True`` if removed.

        Vertices stay registered even when their last edge is removed,
        matching the degree-preserving rewiring use case.
        """
        key = (source, target)
        if not self.directed and source > target:
            key = (target, source)
        if key in self._edges:
            self._edges.remove(key)
            return True
        return False

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        """Number of edges (arcs, for directed graphs)."""
        return len(self._edges)

    def build(self) -> "Graph":
        """Freeze the accumulated vertices/edges into a :class:`Graph`."""
        edges = sorted(self._edges)
        weights: list[float] | None = None
        if self._weights:
            missing = [e for e in edges if e not in self._weights]
            if missing:
                raise ValueError(
                    "weighted builder has unweighted edges "
                    f"(e.g. {missing[:3]}); supply a weight for every "
                    "edge or for none"
                )
            weights = [self._weights[e] for e in edges]
        return Graph(
            sorted(self._vertices),
            edges,
            directed=self.directed,
            weights=weights,
        )


class Graph:
    """Immutable CSR-backed graph.

    Use :class:`GraphBuilder`, :meth:`from_edges`, or
    :meth:`from_adjacency` rather than calling the constructor with raw
    edge lists, unless the input is already deduplicated and sorted.
    The constructor itself drops self-loops (and their weights), after
    checking that every endpoint is a registered vertex and every
    weight is valid.

    Attributes
    ----------
    directed:
        Directed graphs store out-adjacency in :meth:`neighbors` and
        in-adjacency in :meth:`in_neighbors`. Undirected graphs store
        each edge once in :attr:`edges` (with ``source <= target``) but
        expose both endpoints as mutual neighbors.
    """

    def __init__(
        self,
        vertices: Sequence[int],
        edges: Sequence[tuple[int, int]],
        directed: bool = False,
        weights: Sequence[float] | None = None,
    ):
        self.directed = directed
        if not isinstance(vertices, np.ndarray):
            vertices = list(vertices)
        vertex_array = np.asarray(vertices, dtype=np.int64)
        if vertex_array.ndim == 1 and (
            len(vertex_array) < 2 or bool((vertex_array[1:] > vertex_array[:-1]).all())
        ):
            # Already sorted and unique (every generator and builder
            # path) — skip the dedup sort.
            self._vertex_ids = vertex_array
        else:
            self._vertex_ids = np.unique(vertex_array)
        self._index_cache: dict[int, int] | None = None
        self._undirected_view: "Graph" | None = None
        self._csr_weight_cache: np.ndarray | None = None
        n = len(self._vertex_ids)

        # Vectorized edge processing: map endpoints to dense indices
        # (validating membership), canonicalize undirected edges, and
        # deduplicate through a single integer key per edge.
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
            edge_array = (
                np.asarray(edges, dtype=np.int64).reshape(-1, 2)
                if edges
                else np.empty((0, 2), dtype=np.int64)
            )
        else:
            edge_array = edges.astype(np.int64, copy=False).reshape(-1, 2)
        weight_array = _validated_weights(weights, len(edge_array))
        flat = edge_array.ravel()
        if len(flat) and n == 0:
            source, target = int(edge_array[0, 0]), int(edge_array[0, 1])
            raise ValueError(
                f"edge ({source}, {target}) references an unregistered vertex"
            )
        dense_ids = n > 0 and int(self._vertex_ids[0]) == 0 and int(
            self._vertex_ids[-1]
        ) == n - 1
        if dense_ids:
            # Dense 0..n-1 vertex ids (every generated graph): ids are
            # their own indices, so membership is a range check — no
            # binary search over the id array.
            positions = flat
            if len(flat):
                bad = (flat < 0) | (flat >= n)
                if bad.any():
                    row = int(np.nonzero(bad)[0][0]) // 2
                    source, target = (
                        int(edge_array[row, 0]),
                        int(edge_array[row, 1]),
                    )
                    raise ValueError(
                        f"edge ({source}, {target}) references an "
                        "unregistered vertex"
                    )
        else:
            positions = np.searchsorted(self._vertex_ids, flat)
            if len(flat):
                positions = np.minimum(positions, n - 1)
                bad = self._vertex_ids[positions] != flat
                if bad.any():
                    row = int(np.nonzero(bad)[0][0]) // 2
                    source, target = (
                        int(edge_array[row, 0]),
                        int(edge_array[row, 1]),
                    )
                    raise ValueError(
                        f"edge ({source}, {target}) references an "
                        "unregistered vertex"
                    )
        src_idx, dst_idx, weight_array = _without_self_loops(
            positions[0::2], positions[1::2], weight_array
        )
        if not directed and len(src_idx):
            src_idx, dst_idx = (
                np.minimum(src_idx, dst_idx),
                np.maximum(src_idx, dst_idx),
            )
        if len(src_idx):
            # Dense indices preserve id order, so deduplicating the
            # combined key also sorts edges by (source, target) id.
            # Sort + run-boundary mask, not np.unique: same sorted
            # result, several times faster on multi-million-edge
            # arrays (np.unique's hash path dominates bulk datagen).
            keys = src_idx * n + dst_idx
            if weight_array is None:
                keys.sort()
                keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
            else:
                # Weighted dedup keeps the minimum weight per edge.
                keys, weight_array = group_reduce(
                    np.minimum, keys, weight_array
                )
            src_idx, dst_idx = np.divmod(keys, n)
        self._weight_list = weight_array
        if dense_ids:
            # Ids are their own indices — no gather needed.
            self._edge_list = np.column_stack([src_idx, dst_idx]).reshape(-1, 2)
        else:
            self._edge_list = np.column_stack(
                [self._vertex_ids[src_idx], self._vertex_ids[dst_idx]]
            ).reshape(-1, 2)

        if directed:
            # The dedup above left edges (source, target)-sorted, so
            # the forward CSR needs no sort pass at all.
            self._offsets, self._targets = _csr_from_sorted(n, src_idx, dst_idx)
            self._in_offsets, self._in_targets = _build_csr(n, dst_idx, src_idx)
        else:
            all_src = np.concatenate([src_idx, dst_idx])
            all_dst = np.concatenate([dst_idx, src_idx])
            self._offsets, self._targets = _build_csr(n, all_src, all_dst)
            self._in_offsets, self._in_targets = self._offsets, self._targets

    @property
    def _index_of(self) -> dict[int, int]:
        """Vertex id -> dense index mapping, built on first use."""
        if self._index_cache is None:
            self._index_cache = {
                int(v): i for i, v in enumerate(self._vertex_ids)
            }
        return self._index_cache

    # -- constructors -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        directed: bool = False,
        vertices: Iterable[int] | None = None,
        weights: Iterable[float] | None = None,
    ) -> "Graph":
        """Build a graph from an edge iterable, deduplicating as needed.

        ``vertices`` may supply additional isolated vertices;
        ``weights`` (parallel to ``edges``) makes the graph weighted.
        """
        builder = GraphBuilder(directed=directed)
        if vertices is not None:
            builder.add_vertices(vertices)
        if weights is not None:
            edge_list = list(edges)
            weight_list = list(weights)
            if len(edge_list) != len(weight_list):
                raise ValueError(
                    f"got {len(weight_list)} weights for "
                    f"{len(edge_list)} edges"
                )
            builder.add_weighted_edges(
                (s, t, w) for (s, t), w in zip(edge_list, weight_list)
            )
        else:
            builder.add_edges(edges)
        return builder.build()

    @classmethod
    def from_adjacency(
        cls, adjacency: dict[int, Iterable[int]], directed: bool = False
    ) -> "Graph":
        """Build a graph from ``{vertex: neighbors}`` mapping."""
        builder = GraphBuilder(directed=directed)
        for vertex, neighbors in adjacency.items():
            builder.add_vertex(vertex)
            for neighbor in neighbors:
                builder.add_edge(vertex, neighbor)
        return builder.build()

    # -- basic accessors ----------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._vertex_ids)

    @property
    def num_edges(self) -> int:
        """Number of edges (arcs, for directed graphs)."""
        return len(self._edge_list)

    @property
    def vertices(self) -> np.ndarray:
        """Sorted array of vertex identifiers."""
        return self._vertex_ids

    @property
    def edges(self) -> np.ndarray:
        """``(num_edges, 2)`` array of edges.

        For undirected graphs each edge appears once with
        ``source <= target``.
        """
        return self._edge_list

    @property
    def weights(self) -> np.ndarray | None:
        """Per-edge weights aligned with :attr:`edges`, or ``None``.

        Unweighted graphs (the default) return ``None``; the SSSP
        workload requires a weighted graph.
        """
        return self._weight_list

    @property
    def is_weighted(self) -> bool:
        """Whether the graph carries edge weights."""
        return self._weight_list is not None

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges as Python int pairs."""
        return zip(self._edge_list[:, 0].tolist(), self._edge_list[:, 1].tolist())

    def iter_weighted_edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over ``(source, target, weight)`` triples."""
        if self._weight_list is None:
            raise ValueError("graph has no edge weights")
        return zip(
            self._edge_list[:, 0].tolist(),
            self._edge_list[:, 1].tolist(),
            self._weight_list.tolist(),
        )

    def has_vertex(self, vertex: int) -> bool:
        """Whether the vertex id exists in the graph."""
        return int(vertex) in self._index_of

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the edge exists (directionally, for directed graphs)."""
        si = self._index_of.get(int(source))
        ti = self._index_of.get(int(target))
        if si is None or ti is None:
            return False
        row = self._targets[self._offsets[si] : self._offsets[si + 1]]
        pos = np.searchsorted(row, ti)
        return bool(pos < len(row) and row[pos] == ti)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Out-neighbors (all neighbors, for undirected graphs).

        Returns vertex identifiers, sorted ascending.
        """
        idx = self._index_of[int(vertex)]
        targets = self._targets[self._offsets[idx] : self._offsets[idx + 1]]
        return self._vertex_ids[targets]

    def in_neighbors(self, vertex: int) -> np.ndarray:
        """In-neighbors (same as :meth:`neighbors` for undirected)."""
        idx = self._index_of[int(vertex)]
        targets = self._in_targets[self._in_offsets[idx] : self._in_offsets[idx + 1]]
        return self._vertex_ids[targets]

    def degree(self, vertex: int) -> int:
        """Out-degree (total degree, for undirected graphs)."""
        idx = self._index_of[int(vertex)]
        return int(self._offsets[idx + 1] - self._offsets[idx])

    def in_degree(self, vertex: int) -> int:
        """In-degree (same as degree, for undirected graphs)."""
        idx = self._index_of[int(vertex)]
        return int(self._in_offsets[idx + 1] - self._in_offsets[idx])

    def degrees(self) -> dict[int, int]:
        """Mapping from vertex id to (out-)degree."""
        counts = np.diff(self._offsets)
        return {int(v): int(c) for v, c in zip(self._vertex_ids, counts)}

    def degree_sequence(self) -> np.ndarray:
        """Array of degrees ordered by ascending vertex id."""
        return np.diff(self._offsets)

    # -- vectorized (bulk) accessors -----------------------------------

    def indices_of(self, vertices: Iterable[int]) -> np.ndarray:
        """Map vertex identifiers to dense CSR indices, vectorized.

        The dense index of a vertex is its position in
        :attr:`vertices`; bulk kernels use it to address the CSR
        arrays returned by :meth:`csr`. Raises ``KeyError`` if any id
        is not in the graph.
        """
        if not isinstance(vertices, np.ndarray):
            vertices = list(vertices)
        ids = np.asarray(vertices, dtype=np.int64)
        if len(ids) == 0:
            return np.empty(0, dtype=np.int64)
        if len(self._vertex_ids) == 0:
            raise KeyError(f"vertices not in graph: {ids[:5].tolist()}")
        idx = np.searchsorted(self._vertex_ids, ids)
        idx = np.minimum(idx, len(self._vertex_ids) - 1)
        if not np.array_equal(self._vertex_ids[idx], ids):
            bad = ids[self._vertex_ids[idx] != ids]
            raise KeyError(f"vertices not in graph: {bad[:5].tolist()}")
        return idx

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw out-adjacency CSR arrays ``(offsets, targets)``.

        Both arrays are over *dense indices* (see :meth:`indices_of`)
        and must be treated as read-only; they are shared with the
        graph instance.
        """
        return self._offsets, self._targets

    def csr_weights(self) -> np.ndarray:
        """Arc weights aligned with the :meth:`csr` ``targets`` array.

        Entry ``k`` is the weight of the arc stored at ``targets[k]``.
        For undirected graphs each edge contributes its weight to both
        arc copies. Built once and cached (graphs are immutable).
        """
        if self._weight_list is None:
            raise ValueError("graph has no edge weights")
        if self._csr_weight_cache is None:
            src_idx = self.indices_of(self._edge_list[:, 0])
            dst_idx = self.indices_of(self._edge_list[:, 1])
            if self.directed:
                # The edge list is already (source, target)-sorted —
                # exactly the forward CSR order.
                self._csr_weight_cache = np.ascontiguousarray(
                    self._weight_list, dtype=np.float64
                )
            else:
                all_src = np.concatenate([src_idx, dst_idx])
                all_dst = np.concatenate([dst_idx, src_idx])
                all_w = np.concatenate(
                    [self._weight_list, self._weight_list]
                )
                # Mirror _build_csr's (source, target) ordering.
                self._csr_weight_cache = all_w[
                    np.lexsort((all_dst, all_src))
                ]
        return self._csr_weight_cache

    def out_degrees(self) -> np.ndarray:
        """Vectorized out-degrees ordered by ascending vertex id.

        For undirected graphs this is the total degree. Entry ``i``
        corresponds to ``vertices[i]``, so combined with
        :meth:`indices_of` it replaces per-vertex :meth:`degree` calls
        in hot loops.
        """
        return np.diff(self._offsets)

    # -- derived graphs -----------------------------------------------

    def to_undirected(self) -> "Graph":
        """Undirected view: every directed edge becomes undirected.

        The view is computed once and cached — graphs are immutable,
        and engines request the same view repeatedly.
        """
        if not self.directed:
            return self
        if self._undirected_view is None:
            self._undirected_view = Graph(
                self._vertex_ids,
                self._edge_list,
                directed=False,
                weights=self._weight_list,
            )
        return self._undirected_view

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on the given vertex set."""
        keep = set(int(v) for v in vertices)
        missing = keep.difference(int(v) for v in self._vertex_ids if int(v) in keep)
        if missing:
            raise ValueError(f"vertices not in graph: {sorted(missing)[:5]}")
        if self._weight_list is None:
            edges = [
                (s, t) for s, t in self.iter_edges() if s in keep and t in keep
            ]
            return Graph(sorted(keep), edges, directed=self.directed)
        kept = [
            (s, t, w)
            for s, t, w in self.iter_weighted_edges()
            if s in keep and t in keep
        ]
        return Graph(
            sorted(keep),
            [(s, t) for s, t, _ in kept],
            directed=self.directed,
            weights=[w for _, _, w in kept],
        )

    def relabel(self) -> tuple["Graph", dict[int, int]]:
        """Relabel vertices to ``0..n-1``; returns (graph, old->new map)."""
        mapping = {int(v): i for i, v in enumerate(self._vertex_ids)}
        edges = [(mapping[s], mapping[t]) for s, t in self.iter_edges()]
        relabeled = Graph(
            range(len(mapping)),
            edges,
            directed=self.directed,
            weights=self._weight_list,
        )
        return relabeled, mapping

    def with_uniform_weights(self, seed: int = 0) -> "Graph":
        """A structurally identical graph with derived edge weights.

        Weights are a deterministic hash of (seed, source, target)
        mapped into ``[1, 2)`` — positive, reproducible, independent
        of edge order, and stable under relabeling-free copies. This
        is how the benchmark runs SSSP on datasets that ship without
        weights (the Graphalytics datagen equivalent of its
        ``wgt``-annotated edge files).
        """
        if self._weight_list is not None:
            return self
        edges = self._edge_list
        if len(edges):
            # splitmix64-style avalanche over the packed endpoints;
            # vectorized, collision-tolerant (only the 53-bit mantissa
            # fraction matters). uint64 wraparound is the point.
            with np.errstate(over="ignore"):
                mixed = (
                    edges[:, 0].astype(np.uint64)
                    * np.uint64(0x9E3779B97F4A7C15)
                    + edges[:, 1].astype(np.uint64)
                    * np.uint64(0xBF58476D1CE4E5B9)
                    + np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
                    * np.uint64(0x94D049BB133111EB)
                )
                mixed ^= mixed >> np.uint64(31)
                mixed *= np.uint64(0xD6E8FEB86659FD93)
                mixed ^= mixed >> np.uint64(27)
            weights = 1.0 + (mixed >> np.uint64(11)).astype(np.float64) / float(
                1 << 53
            )
        else:
            weights = np.empty(0, dtype=np.float64)
        return Graph(
            self._vertex_ids,
            edges,
            directed=self.directed,
            weights=weights,
        )

    # -- persistence ----------------------------------------------------

    def content_key(self) -> str:
        """Stable content hash of the graph (hex sha256 prefix).

        Hashes the canonical representation — directedness, the sorted
        vertex ids, and the deduplicated edge list — so two structurally
        equal graphs (``==``) always share a key. The CSR arrays are
        derived data and excluded.
        """
        digest = hashlib.sha256()
        digest.update(b"directed" if self.directed else b"undirected")
        digest.update(np.ascontiguousarray(self._vertex_ids).tobytes())
        digest.update(np.ascontiguousarray(self._edge_list).tobytes())
        if self._weight_list is not None:
            # Weighted graphs hash differently from their unweighted
            # skeleton — the DatasetCache must not conflate them.
            digest.update(b"weights")
            digest.update(np.ascontiguousarray(self._weight_list).tobytes())
        return digest.hexdigest()[:32]

    def save(self, path: str | Path) -> Path:
        """Persist the graph as ``.npy`` arrays under ``path``.

        Writes one ``.npy`` file per CSR/identity array plus a
        ``meta.json``, so :meth:`load` can map the arrays back with
        ``np.load(mmap_mode="r")`` — process-pool workers then share
        the OS page cache instead of each holding a pickled copy.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        arrays = {
            "vertex_ids": self._vertex_ids,
            "edge_list": self._edge_list,
            "offsets": self._offsets,
            "targets": self._targets,
        }
        if self.directed:
            arrays["in_offsets"] = self._in_offsets
            arrays["in_targets"] = self._in_targets
        if self._weight_list is not None:
            arrays["weights"] = self._weight_list
        for name, array in arrays.items():
            np.save(path / f"{name}.npy", np.ascontiguousarray(array))
        meta = {
            "format": (
                GRAPH_FORMAT_WEIGHTED
                if self._weight_list is not None
                else GRAPH_FORMAT
            ),
            "directed": self.directed,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "content_key": self.content_key(),
        }
        (path / "meta.json").write_text(json.dumps(meta, indent=2))
        return path

    @classmethod
    def load(cls, path: str | Path, mmap: bool = True) -> "Graph":
        """Load a graph saved by :meth:`save`.

        With ``mmap=True`` (the default) the arrays are memory-mapped
        read-only: loading is O(1) in graph size and concurrent
        processes share physical pages. The constructor is bypassed —
        the saved arrays are already canonical.
        """
        path = Path(path)
        meta = json.loads((path / "meta.json").read_text())
        if meta.get("format") not in (GRAPH_FORMAT, GRAPH_FORMAT_WEIGHTED):
            raise ValueError(
                f"unsupported graph format {meta.get('format')!r} at {path}"
            )
        weighted = meta["format"] == GRAPH_FORMAT_WEIGHTED
        mmap_mode = "r" if mmap else None

        def _read(name: str) -> np.ndarray:
            return np.load(path / f"{name}.npy", mmap_mode=mmap_mode)

        graph = cls.__new__(cls)
        graph.directed = bool(meta["directed"])
        graph._vertex_ids = _read("vertex_ids")
        graph._edge_list = _read("edge_list")
        graph._offsets = _read("offsets")
        graph._targets = _read("targets")
        if graph.directed:
            graph._in_offsets = _read("in_offsets")
            graph._in_targets = _read("in_targets")
        else:
            graph._in_offsets = graph._offsets
            graph._in_targets = graph._targets
        graph._weight_list = _read("weights") if weighted else None
        graph._index_cache = None
        graph._undirected_view = None
        graph._csr_weight_cache = None
        return graph

    # -- adjacency export ----------------------------------------------

    def adjacency(self) -> dict[int, list[int]]:
        """Full ``{vertex: [neighbors]}`` mapping (out-adjacency).

        Keys and neighbors are Python ints, in :meth:`neighbors` order;
        every call builds a new mapping from one pass over the CSR.
        """
        bounds = self._offsets.tolist()
        arcs = self._vertex_ids[self._targets].tolist()
        return {
            vertex: arcs[bounds[i]: bounds[i + 1]]
            for i, vertex in enumerate(self._vertex_ids.tolist())
        }

    def weighted_adjacency(self) -> dict[int, list[tuple[int, float]]]:
        """``{vertex: [(neighbor, weight)]}`` in :meth:`neighbors` order."""
        weights = self.csr_weights()
        out: dict[int, list[tuple[int, float]]] = {}
        for i, vertex in enumerate(self._vertex_ids):
            start, end = self._offsets[i], self._offsets[i + 1]
            out[int(vertex)] = [
                (int(self._vertex_ids[t]), float(w))
                for t, w in zip(self._targets[start:end], weights[start:end])
            ]
        return out

    # -- dunder --------------------------------------------------------

    def __contains__(self, vertex: int) -> bool:
        return self.has_vertex(vertex)

    def __len__(self) -> int:
        return self.num_vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if (self._weight_list is None) != (other._weight_list is None):
            return False
        if self._weight_list is not None and not np.array_equal(
            self._weight_list, other._weight_list
        ):
            return False
        return (
            self.directed == other.directed
            and np.array_equal(self._vertex_ids, other._vertex_ids)
            and np.array_equal(self._edge_list, other._edge_list)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        weighted = ", weighted" if self.is_weighted else ""
        return (
            f"Graph({kind}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}{weighted})"
        )


def _validated_weights(
    weights: Sequence[float] | None, num_edges: int
) -> np.ndarray | None:
    """Coerce an edge-weight sequence to float64, enforcing one finite
    positive weight per edge."""
    if weights is None:
        return None
    if not isinstance(weights, np.ndarray):
        weights = list(weights)
    weight_array = np.asarray(weights, dtype=np.float64).ravel()
    if len(weight_array) != num_edges:
        raise ValueError(
            f"got {len(weight_array)} weights for {num_edges} edges"
        )
    if len(weight_array) and not bool(
        np.isfinite(weight_array).all() & (weight_array > 0).all()
    ):
        raise ValueError("edge weights must be finite and positive")
    return weight_array


def _without_self_loops(
    sources: np.ndarray, targets: np.ndarray, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Drop the edges whose endpoints are equal, with their weights:
    a graph holds no self-loop."""
    links = sources != targets
    if links.all():
        return sources, targets, weights
    if weights is not None:
        weights = weights[links]
    return sources[links], targets[links], weights


def _build_csr(
    n: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Build (offsets, sorted targets) CSR arrays over dense indices."""
    if len(sources) and n <= (1 << 31):
        # The combined key source * n + target encodes the (source,
        # target) lexicographic order in one int64 (dense indices are
        # < n, so no collision; n <= 2^31 rules out overflow). A
        # value sort of the keys then replaces both the two-pass
        # lexsort and the permutation gathers — the keys decode
        # straight back into sorted sources and targets.
        keys = sources * np.int64(n) + targets
        keys.sort()
        sources, targets = np.divmod(keys, n)
    else:
        order = np.lexsort((targets, sources))
        sources = sources[order]
        targets = targets[order]
    return _csr_from_sorted(n, sources, targets)


def _csr_from_sorted(
    n: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays when edges are already (source, target)-sorted."""
    counts = np.bincount(sources, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, targets
