"""The Output Validator (paper Figure 2).

"The Output Validator checks the outcome of the benchmark to ensure
correctness." Every platform's output is compared against the
single-threaded reference implementations in :mod:`repro.algorithms`:

* BFS, CONN, CD, EVO are deterministic under the benchmark's
  specifications, so outputs must match *exactly*;
* STATS counts must match exactly and the mean local clustering
  coefficient must match within floating-point tolerance;
* SSSP distances and LCC coefficients are floats but still compare
  *exactly*: the min-plus shortest-path fixpoint is insensitive to
  relaxation order, and every LCC implementation derives its float
  from integer triangle counts through the shared ``lcc_value``
  helper;
* PR ranks are compared per vertex within a relative tolerance —
  platforms sum rank shares in different orders, so bitwise equality
  is not achievable (nor required by LDBC Graphalytics).
"""

from __future__ import annotations

import math

from repro.algorithms import (
    bfs,
    community_detection,
    connected_components,
    forest_fire_links,
    lcc,
    pagerank,
    sssp,
    stats,
)
from repro.algorithms.stats import GraphStats
from repro.core.errors import ValidationFailure
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.graph import Graph

__all__ = ["OutputValidator"]


class OutputValidator:
    """Validates platform outputs against reference implementations."""

    def __init__(
        self,
        clustering_tolerance: float = 1e-9,
        pagerank_tolerance: float = 1e-9,
    ):
        self.clustering_tolerance = clustering_tolerance
        #: Per-vertex relative tolerance for PR scores.
        self.pagerank_tolerance = pagerank_tolerance
        # (graph, algorithm, params) -> reference output, so a suite
        # computes each reference once however many platforms run the
        # cell. Graphs hash by identity and are immutable, and
        # ``AlgorithmParams`` is frozen, so a key never goes stale.
        self._references: dict[
            tuple[Graph, Algorithm, AlgorithmParams], object
        ] = {}

    def reference_output(
        self, graph: Graph, algorithm: Algorithm, params: AlgorithmParams
    ):
        """Compute the ground-truth output for a workload (uncached)."""
        if algorithm is Algorithm.STATS:
            return stats(graph)
        if algorithm is Algorithm.BFS:
            return bfs(graph, params.resolve_bfs_source(graph))
        if algorithm is Algorithm.CONN:
            return connected_components(graph)
        if algorithm is Algorithm.CD:
            return community_detection(
                graph,
                max_iterations=params.cd_max_iterations,
                hop_attenuation=params.cd_hop_attenuation,
                node_preference=params.cd_node_preference,
            )
        if algorithm is Algorithm.EVO:
            return forest_fire_links(
                graph,
                params.evo_new_vertices,
                p_forward=params.evo_p_forward,
                max_hops=params.evo_max_hops,
                seed=params.evo_seed,
            )
        if algorithm is Algorithm.PR:
            return pagerank(
                graph,
                damping=params.pagerank_damping,
                iterations=params.pagerank_iterations,
            )
        if algorithm is Algorithm.SSSP:
            return sssp(graph, params.resolve_sssp_source(graph))
        if algorithm is Algorithm.LCC:
            return lcc(graph)
        raise ValueError(f"unknown algorithm {algorithm}")

    def validate(
        self,
        graph: Graph,
        algorithm: Algorithm,
        params: AlgorithmParams,
        output,
    ) -> None:
        """Raise :class:`ValidationFailure` if output is incorrect."""
        key = (graph, algorithm, params)
        if key not in self._references:
            self._references[key] = self.reference_output(
                graph, algorithm, params
            )
        reference = self._references[key]
        if algorithm is Algorithm.STATS:
            self._validate_stats(output, reference)
            return
        if algorithm is Algorithm.PR:
            self._validate_pagerank(output, reference)
            return
        if output != reference:
            difference = self._describe_difference(output, reference)
            raise ValidationFailure(
                f"{algorithm.value} output disagrees with reference: {difference}"
            )

    def _validate_pagerank(self, output, reference: dict) -> None:
        """Per-vertex tolerance comparison for PR rank maps."""
        if not isinstance(output, dict):
            raise ValidationFailure(
                f"PR output must be a dict, got {type(output).__name__}"
            )
        if set(output) != set(reference):
            difference = self._describe_difference(output, reference)
            raise ValidationFailure(
                f"PR output disagrees with reference: {difference}"
            )
        wrong = {
            vertex: (output[vertex], expected)
            for vertex, expected in reference.items()
            if not math.isclose(
                output[vertex],
                expected,
                rel_tol=self.pagerank_tolerance,
                abs_tol=self.pagerank_tolerance,
            )
        }
        if wrong:
            sample = dict(sorted(wrong.items())[:3])
            raise ValidationFailure(
                f"PR output disagrees with reference beyond tolerance "
                f"{self.pagerank_tolerance}: {len(wrong)} vertices "
                f"(got, expected): {sample}"
            )

    def _validate_stats(self, output, reference: GraphStats) -> None:
        if not isinstance(output, GraphStats):
            raise ValidationFailure(
                f"STATS output must be GraphStats, got {type(output).__name__}"
            )
        if output.num_vertices != reference.num_vertices:
            raise ValidationFailure(
                f"STATS vertex count {output.num_vertices} != "
                f"{reference.num_vertices}"
            )
        if output.num_edges != reference.num_edges:
            raise ValidationFailure(
                f"STATS edge count {output.num_edges} != {reference.num_edges}"
            )
        if not math.isclose(
            output.mean_local_clustering,
            reference.mean_local_clustering,
            rel_tol=self.clustering_tolerance,
            abs_tol=self.clustering_tolerance,
        ):
            raise ValidationFailure(
                f"STATS mean clustering {output.mean_local_clustering} != "
                f"{reference.mean_local_clustering}"
            )

    @staticmethod
    def _describe_difference(output, reference) -> str:
        """Short human-readable diff for the failure message."""
        if not isinstance(output, dict) or not isinstance(reference, dict):
            return f"got {type(output).__name__}"
        missing = set(reference) - set(output)
        extra = set(output) - set(reference)
        if missing:
            return f"{len(missing)} keys missing (e.g. {sorted(missing)[:3]})"
        if extra:
            return f"{len(extra)} unexpected keys (e.g. {sorted(extra)[:3]})"
        wrong = [k for k in reference if output[k] != reference[k]]
        sample = {k: (output[k], reference[k]) for k in sorted(wrong)[:3]}
        return f"{len(wrong)} wrong values (got, expected): {sample}"
