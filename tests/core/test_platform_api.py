"""Tests for the Platform base-class contract."""

import pytest

from repro.core.cost import CostMeter, MemoryBudgetExceeded
from repro.core.errors import PlatformFailure
from repro.core.platform_api import GraphHandle, Platform
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.graph import Graph


class _MinimalPlatform(Platform):
    """Smallest possible driver, for contract tests."""

    name = "minimal"

    def _load(self, name, graph):
        return GraphHandle(name=name, platform=self.name, graph=graph)

    def _execute(self, handle, algorithm, params):
        meter = CostMeter(self.cluster)
        meter.begin_round("noop")
        meter.end_round()
        return {"params": params}, meter.profile


class _OOMOnLoad(Platform):
    name = "oom-load"

    def _load(self, name, graph):
        raise MemoryBudgetExceeded(0, 100.0, 10.0)

    def _execute(self, handle, algorithm, params):  # pragma: no cover
        raise AssertionError


class _OOMOnRun(_MinimalPlatform):
    name = "oom-run"

    def _execute(self, handle, algorithm, params):
        raise MemoryBudgetExceeded(2, 100.0, 10.0)


@pytest.fixture
def graph():
    return Graph.from_edges([(0, 1), (1, 2)])


def test_upload_times_etl(cluster_spec, graph):
    platform = _MinimalPlatform(cluster_spec)
    handle = platform.upload_graph("g", graph)
    assert handle.etl_seconds >= 0.0
    assert handle.platform == "minimal"


def test_default_params_injected(cluster_spec, graph):
    platform = _MinimalPlatform(cluster_spec)
    handle = platform.upload_graph("g", graph)
    run = platform.run_algorithm(handle, Algorithm.BFS)
    assert isinstance(run.output["params"], AlgorithmParams)
    assert run.wall_seconds >= 0.0
    assert run.algorithm is Algorithm.BFS


def test_supported_algorithms_default_all(cluster_spec):
    assert _MinimalPlatform(cluster_spec).supported_algorithms() == list(Algorithm)


def test_delete_graph_default_noop(cluster_spec, graph):
    platform = _MinimalPlatform(cluster_spec)
    handle = platform.upload_graph("g", graph)
    platform.delete_graph(handle)  # must not raise


def test_memory_error_on_load_becomes_platform_failure(cluster_spec, graph):
    platform = _OOMOnLoad(cluster_spec)
    with pytest.raises(PlatformFailure) as info:
        platform.upload_graph("g", graph)
    assert info.value.reason == "out-of-memory"
    assert info.value.platform == "oom-load"


def test_memory_error_on_run_becomes_platform_failure(cluster_spec, graph):
    platform = _OOMOnRun(cluster_spec)
    handle = platform.upload_graph("g", graph)
    with pytest.raises(PlatformFailure) as info:
        platform.run_algorithm(handle, Algorithm.CONN)
    assert info.value.reason == "out-of-memory"


def test_foreign_handle_rejected(cluster_spec, graph):
    owner = _MinimalPlatform(cluster_spec)
    other = _OOMOnRun(cluster_spec)
    handle = owner.upload_graph("g", graph)
    with pytest.raises(ValueError, match="loaded into"):
        other.run_algorithm(handle, Algorithm.BFS)


def test_handle_adjacency_is_built_once_in_neighbor_order():
    graph = Graph.from_edges(
        [(10, 20), (20, 400), (400, 10), (7, 9)],
        vertices=[10, 20, 400, 7, 9, 100_000],
        directed=False,
    )
    handle = GraphHandle(name="g", platform="minimal", graph=graph)
    assert "adjacency" not in handle.detail
    adjacency = handle.adjacency()
    assert adjacency == {
        int(v): tuple(int(u) for u in graph.neighbors(int(v)))
        for v in graph.vertices
    }
    assert list(adjacency) == graph.vertices.tolist()
    assert handle.detail["adjacency"] is adjacency
    assert handle.adjacency() is adjacency
