"""Unit tests for the memory-footprint model and ``--mem-limit``."""

import pytest

from repro.core.cost import ClusterSpec
from repro.graph.generators import rmat_graph
from repro.platforms.pregel.driver import GiraphPlatform
from repro.platforms.registry import available_platforms
from repro.robustness.memory import (
    PLATFORM_MEMORY_MODELS,
    apply_mem_limit,
    estimate_footprint,
    parse_bytes,
)


class TestParseBytes:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", 0.0),
            ("65536", 65536.0),
            ("64K", 64 * 2 ** 10),
            ("64KB", 64 * 2 ** 10),
            ("512m", 512 * 2 ** 20),
            ("1.5G", 1.5 * 2 ** 30),
            ("2T", 2 * 2 ** 40),
            (" 8 K ", 8 * 2 ** 10),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_bytes(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "12Q", "-1", "1..5G"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_bytes(text)


class TestFootprintModel:
    def test_every_platform_has_a_model(self):
        assert set(PLATFORM_MEMORY_MODELS) == set(available_platforms())

    def test_estimate_scales_with_graph(self):
        small = rmat_graph(6, edge_factor=8, seed=3)
        large = rmat_graph(8, edge_factor=8, seed=3)
        for platform in PLATFORM_MEMORY_MODELS:
            lo = estimate_footprint(platform, small, num_workers=10)
            hi = estimate_footprint(platform, large, num_workers=10)
            assert hi.bytes_per_worker > lo.bytes_per_worker

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError, match="no memory model"):
            estimate_footprint("spark-4.0", rmat_graph(5, 4, seed=1))

    def test_single_machine_platforms_ignore_worker_count(self):
        graph = rmat_graph(7, edge_factor=8, seed=5)
        one = estimate_footprint("neo4j", graph, num_workers=1)
        ten = estimate_footprint("neo4j", graph, num_workers=10)
        assert one.bytes_per_worker == ten.bytes_per_worker

    def test_paper_failure_ordering_of_footprints(self):
        """Neo4j's floor beats GraphX's beats Giraph's — the Figure 4
        ordering a shared ``--mem-limit`` reproduces."""
        graph = rmat_graph(8, edge_factor=8, seed=21)
        workers = ClusterSpec.paper_distributed().num_workers
        neo4j = estimate_footprint("neo4j", graph, workers).bytes_per_worker
        graphx = estimate_footprint("graphx", graph, workers).bytes_per_worker
        giraph = estimate_footprint("giraph", graph, workers).bytes_per_worker
        assert neo4j > graphx > giraph

    def test_fits(self):
        graph = rmat_graph(6, edge_factor=4, seed=2)
        estimate = estimate_footprint("giraph", graph, num_workers=10)
        assert estimate.fits(estimate.bytes_per_worker)
        assert not estimate.fits(estimate.bytes_per_worker - 1)


class TestApplyMemLimit:
    def test_rebinds_cluster_spec(self):
        platform = GiraphPlatform(ClusterSpec.paper_distributed())
        returned = apply_mem_limit(platform, 1234.0)
        assert returned is platform
        assert platform.cluster.hardware.memory_bytes_per_worker == 1234.0
        # Everything else is untouched.
        assert platform.cluster.num_workers == 10

    def test_rejects_nonpositive(self):
        platform = GiraphPlatform(ClusterSpec.paper_distributed())
        with pytest.raises(ValueError, match="positive"):
            apply_mem_limit(platform, 0)
