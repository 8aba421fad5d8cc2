"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.cost import ClusterSpec
from repro.graph.graph import Graph
from repro.graph.generators import rmat_graph


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def src_quality_report():
    """The static analysis of ``src/``, run once per test session.

    Whole-tree analysis is the slowest step of the suite; every gate
    test that judges the shipped tree reads this one report.
    """
    from repro.analysis import analyze_tree

    return analyze_tree(ROOT / "src")


@pytest.fixture
def triangle_graph() -> Graph:
    """3-cycle plus a pendant vertex and an isolated vertex."""
    return Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], vertices=[4])


@pytest.fixture
def two_components_graph() -> Graph:
    """Two components: a path 0-1-2 and an edge 10-11."""
    return Graph.from_edges([(0, 1), (1, 2), (10, 11)])


@pytest.fixture
def small_rmat() -> Graph:
    """Small skewed benchmark-like graph (deterministic)."""
    return rmat_graph(8, edge_factor=8, seed=7)


@pytest.fixture
def medium_rmat() -> Graph:
    """Medium benchmark-like graph for integration tests."""
    return rmat_graph(9, edge_factor=8, seed=11)


@pytest.fixture
def cluster_spec() -> ClusterSpec:
    """The paper's 10-worker distributed cluster."""
    return ClusterSpec.paper_distributed()


@pytest.fixture
def single_node_spec() -> ClusterSpec:
    """The paper's single 192 GiB machine."""
    return ClusterSpec.paper_single_node()


@pytest.fixture
def tiny_memory_spec() -> ClusterSpec:
    """A cluster whose memory budget nothing realistic fits into."""
    spec = ClusterSpec.paper_distributed()
    return replace(
        spec, hardware=replace(spec.hardware, memory_bytes_per_worker=2048.0)
    )
