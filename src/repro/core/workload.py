"""Workload definitions: algorithms, parameters, and runs.

Mirrors the paper's Section 2.3 user workflow: "By default,
Graphalytics runs all the algorithms implemented on all configured
graphs. If users want to run a subset of the algorithms, they must
define a run that includes only the algorithms and graphs of
interest."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.core.errors import ConfigurationError
from repro.graph.graph import Graph

__all__ = [
    "Algorithm",
    "AlgorithmParams",
    "sssp_round_bound",
    "Workload",
    "BenchmarkRunSpec",
]


class Algorithm(enum.Enum):
    """The Graphalytics algorithms.

    STATS, BFS, CONN, CD, and EVO are the paper's original workload
    (Section 3.2); PR, SSSP, and LCC close the gap to the
    six-algorithm LDBC Graphalytics v1.0 workload (PAPERS.md).
    """

    STATS = "STATS"
    BFS = "BFS"
    CONN = "CONN"
    CD = "CD"
    EVO = "EVO"
    PR = "PR"
    SSSP = "SSSP"
    LCC = "LCC"

    @classmethod
    def from_name(cls, name: str) -> "Algorithm":
        """Resolve an algorithm by (case-insensitive) name."""
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown algorithm {name!r}; choose from "
                f"{[a.name for a in cls]}"
            ) from None


@dataclass(frozen=True)
class AlgorithmParams:
    """Parameters for the algorithms that take any.

    Attributes
    ----------
    bfs_source:
        Seed vertex for BFS; ``None`` selects the smallest vertex id.
    cd_max_iterations, cd_hop_attenuation, cd_node_preference:
        Community-detection (Leung et al.) knobs.
    evo_new_vertices, evo_p_forward, evo_max_hops, evo_seed:
        Forest-fire evolution knobs.
    pagerank_damping, pagerank_iterations:
        The PR damping factor and its fixed iteration count.
    sssp_source:
        Seed vertex for SSSP; ``None`` selects the smallest vertex id.
    """

    bfs_source: int | None = None
    cd_max_iterations: int = 10
    cd_hop_attenuation: float = 0.1
    cd_node_preference: float = 0.1
    evo_new_vertices: int = 100
    evo_p_forward: float = 0.3
    evo_max_hops: int = 2
    evo_seed: int = 0
    pagerank_damping: float = 0.85
    pagerank_iterations: int = 10
    sssp_source: int | None = None

    def resolve_bfs_source(self, graph: Graph) -> int:
        """The effective BFS seed vertex for a graph."""
        if self.bfs_source is not None:
            if not graph.has_vertex(self.bfs_source):
                raise ValueError(f"BFS source {self.bfs_source} not in graph")
            return self.bfs_source
        return int(graph.vertices[0])

    def resolve_sssp_source(self, graph: Graph) -> int:
        """The effective SSSP seed vertex for a graph.

        Also where the workload's weight requirement is enforced:
        running SSSP on an unweighted graph raises a clear
        :class:`ConfigurationError` here, at workload-resolution time,
        instead of a ``KeyError`` deep inside a platform engine.
        """
        if graph.weights is None:
            raise ConfigurationError(
                "SSSP requires a weighted graph; this graph has no edge "
                "weights (generate them with Graph.with_uniform_weights, "
                "or set 'weights = uniform' in the graph config)"
            )
        if self.sssp_source is not None:
            if not graph.has_vertex(self.sssp_source):
                raise ValueError(
                    f"SSSP source {self.sssp_source} not in graph"
                )
            return self.sssp_source
        return int(graph.vertices[0])

    def with_source(self, source: int) -> "AlgorithmParams":
        """Copy of these params with an explicit BFS source."""
        return replace(self, bfs_source=source)


def sssp_round_bound(num_vertices: int) -> int:
    """Safety bound on the rounds of every label-correcting SSSP loop.

    With positive weights a shortest path has at most ``n - 1`` hops,
    so synchronous relaxation settles within ``n + 1`` rounds; the
    floor of 200 keeps small graphs on the engines' usual bound.
    Every SSSP engine loop, scalar and bulk, reads this one function.
    """
    return max(200, num_vertices + 2)


@dataclass(frozen=True)
class Workload:
    """One (graph, algorithm, parameters) combination."""

    graph_name: str
    algorithm: Algorithm
    params: AlgorithmParams = field(default_factory=AlgorithmParams)

    @property
    def label(self) -> str:
        """Human-readable workload identifier."""
        return f"{self.algorithm.value}@{self.graph_name}"


@dataclass
class BenchmarkRunSpec:
    """A user-defined run: which platforms, graphs, and algorithms.

    ``algorithms=None`` / ``graphs=None`` means "all configured",
    matching the harness default.
    """

    platforms: list[str] | None = None
    graphs: list[str] | None = None
    algorithms: list[Algorithm] | None = None
    params: AlgorithmParams = field(default_factory=AlgorithmParams)
    validate_outputs: bool = True
    repetitions: int = 1
    #: Unmeasured executions before the measured repetitions of each
    #: cell (the warmup the SoK fault taxonomy asks benchmarks to
    #: declare); their runtimes are discarded. They execute only under
    #: a fault plan: a fault-free cell executes once, and a warmup
    #: would repeat that run exactly.
    warmup_runs: int = 0

    def selects_platform(self, name: str) -> bool:
        """Whether the run includes this platform."""
        return self.platforms is None or name in self.platforms

    def selects_graph(self, name: str) -> bool:
        """Whether the run includes this graph."""
        return self.graphs is None or name in self.graphs

    def selects_algorithm(self, algorithm: Algorithm) -> bool:
        """Whether the run includes this algorithm."""
        return self.algorithms is None or algorithm in self.algorithms
