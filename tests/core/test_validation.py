"""Unit tests for the Output Validator."""

import pytest

from repro.algorithms import bfs, connected_components, stats
from repro.algorithms.stats import GraphStats
from repro.core.benchmark import BenchmarkCore
from repro.core.cost import ClusterSpec
from repro.core.errors import ValidationFailure
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm, AlgorithmParams, BenchmarkRunSpec
from repro.platforms.registry import create_platform_fleet


@pytest.fixture
def validator():
    return OutputValidator()


@pytest.fixture
def params():
    return AlgorithmParams(evo_new_vertices=10)


class TestReference:
    def test_reference_dispatch(self, validator, params, small_rmat):
        # SSSP is the one algorithm with an input requirement: it
        # refuses unweighted graphs, so it dispatches on a weighted
        # twin of the same graph.
        weighted = small_rmat.with_uniform_weights(seed=1)
        for algorithm in Algorithm:
            graph = weighted if algorithm is Algorithm.SSSP else small_rmat
            reference = validator.reference_output(graph, algorithm, params)
            assert reference is not None

    def test_reference_bfs_uses_params_source(self, validator, small_rmat):
        params = AlgorithmParams().with_source(int(small_rmat.vertices[3]))
        reference = validator.reference_output(small_rmat, Algorithm.BFS, params)
        assert reference[int(small_rmat.vertices[3])] == 0


class TestValidate:
    def test_correct_outputs_pass(self, validator, params, small_rmat):
        validator.validate(
            small_rmat, Algorithm.BFS, params,
            bfs(small_rmat, params.resolve_bfs_source(small_rmat)),
        )
        validator.validate(
            small_rmat, Algorithm.CONN, params, connected_components(small_rmat)
        )
        validator.validate(small_rmat, Algorithm.STATS, params, stats(small_rmat))

    def test_wrong_value_rejected(self, validator, params, small_rmat):
        output = connected_components(small_rmat)
        vertex = next(iter(output))
        output[vertex] = output[vertex] + 1
        with pytest.raises(ValidationFailure, match="wrong values"):
            validator.validate(small_rmat, Algorithm.CONN, params, output)

    def test_missing_key_rejected(self, validator, params, small_rmat):
        output = connected_components(small_rmat)
        output.pop(next(iter(output)))
        with pytest.raises(ValidationFailure, match="missing"):
            validator.validate(small_rmat, Algorithm.CONN, params, output)

    def test_extra_key_rejected(self, validator, params, small_rmat):
        output = connected_components(small_rmat)
        output[10 ** 9] = 0
        with pytest.raises(ValidationFailure, match="unexpected"):
            validator.validate(small_rmat, Algorithm.CONN, params, output)

    def test_stats_wrong_counts(self, validator, params, small_rmat):
        correct = stats(small_rmat)
        wrong = GraphStats(
            num_vertices=correct.num_vertices + 1,
            num_edges=correct.num_edges,
            mean_local_clustering=correct.mean_local_clustering,
        )
        with pytest.raises(ValidationFailure, match="vertex count"):
            validator.validate(small_rmat, Algorithm.STATS, params, wrong)

    def test_stats_clustering_tolerance(self, params, small_rmat):
        lenient = OutputValidator(clustering_tolerance=0.5)
        correct = stats(small_rmat)
        drifted = GraphStats(
            num_vertices=correct.num_vertices,
            num_edges=correct.num_edges,
            mean_local_clustering=correct.mean_local_clustering + 0.1,
        )
        lenient.validate(small_rmat, Algorithm.STATS, params, drifted)
        with pytest.raises(ValidationFailure):
            OutputValidator().validate(small_rmat, Algorithm.STATS, params, drifted)

    def test_stats_wrong_type(self, validator, params, small_rmat):
        with pytest.raises(ValidationFailure, match="GraphStats"):
            validator.validate(small_rmat, Algorithm.STATS, params, {"n": 1})

    def test_non_dict_output_described(self, validator, params, small_rmat):
        with pytest.raises(ValidationFailure, match="got list"):
            validator.validate(small_rmat, Algorithm.BFS, params, [1, 2, 3])


class _CountingValidator(OutputValidator):
    """Records every reference computation it is asked for."""

    def __init__(self):
        super().__init__()
        self.computed = []

    def reference_output(self, graph, algorithm, params):
        self.computed.append((graph, algorithm, params))
        return super().reference_output(graph, algorithm, params)


class TestReferenceMemo:
    def test_suite_computes_each_reference_once(self, small_rmat):
        validator = _CountingValidator()
        platforms = create_platform_fleet(
            ClusterSpec.paper_distributed(),
            names=["giraph", "graphlab", "graphx"],
        )
        core = BenchmarkCore(
            platforms,
            {"a": small_rmat, "b": small_rmat.with_uniform_weights(seed=1)},
            validator=validator,
        )
        suite = core.run(
            BenchmarkRunSpec(algorithms=[Algorithm.BFS, Algorithm.CONN])
        )
        assert len(suite.results) == 3 * 2 * 2
        assert all(result.succeeded for result in suite.results)
        # Two graphs x two algorithms, however many platforms.
        assert len(validator.computed) == 4
        assert len(set(validator.computed)) == 4

    def test_wrong_output_on_memo_hit_rejected(self, params, small_rmat):
        validator = _CountingValidator()
        correct = connected_components(small_rmat)
        validator.validate(small_rmat, Algorithm.CONN, params, correct)
        wrong = dict(correct)
        vertex = next(iter(wrong))
        wrong[vertex] += 1
        with pytest.raises(ValidationFailure, match="wrong values"):
            validator.validate(small_rmat, Algorithm.CONN, params, wrong)
        assert len(validator.computed) == 1

    def test_reference_output_stays_uncached(self, params, small_rmat):
        validator = _CountingValidator()
        for _ in range(2):
            validator.reference_output(small_rmat, Algorithm.CONN, params)
        assert len(validator.computed) == 2
