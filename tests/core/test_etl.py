"""Tests for ETL cost building blocks and per-driver ETL estimates."""

import pytest

from repro.core import etl
from repro.core.cost import ClusterSpec
from repro.graph.generators import rmat_graph
from repro.platforms.registry import available_platforms, create_platform


class TestBuildingBlocks:
    def test_edge_file_bytes(self):
        assert etl.edge_file_bytes(1000) == 16000.0

    def test_distributed_read_scales_with_workers(self, cluster_spec):
        single = ClusterSpec.paper_single_node()
        assert etl.distributed_read_seconds(1e9, cluster_spec) < (
            1e9 / single.hardware.disk.seq_bandwidth
        )

    def test_partition_shuffle_zero_on_single_node(self, single_node_spec):
        assert etl.partition_shuffle_seconds(1e9, single_node_spec) == 0.0

    def test_replicated_write_counts_replicas(self, cluster_spec):
        once = etl.replicated_write_seconds(1e8, 1, cluster_spec)
        thrice = etl.replicated_write_seconds(1e8, 3, cluster_spec)
        assert thrice > 2.5 * once

    def test_sequential_insert(self, single_node_spec):
        access = single_node_spec.hardware.cpu.random_access_seconds
        assert etl.sequential_insert_seconds(1e6, 3.0, single_node_spec) == (
            pytest.approx(3e6 * access)
        )

    def test_sort_superlinear(self, cluster_spec):
        small = etl.sort_seconds(1e4, cluster_spec)
        large = etl.sort_seconds(1e5, cluster_spec)
        assert large > 10 * small
        assert etl.sort_seconds(1, cluster_spec) == 0.0


class TestDriverEstimates:
    @pytest.fixture(scope="class")
    def estimates(self):
        graph = rmat_graph(9, seed=13)
        distributed = ClusterSpec.paper_distributed()
        single = ClusterSpec.paper_single_node()
        values = {}
        from repro.platforms.registry import is_single_machine

        for name in available_platforms():
            if is_single_machine(name):
                platform = create_platform(name)
            else:
                platform = create_platform(name, distributed)
            handle = platform.upload_graph("g", graph)
            values[name] = handle.etl_simulated_seconds
            platform.delete_graph(handle)
        return values

    def test_every_platform_reports_etl(self, estimates):
        assert set(estimates) == set(available_platforms())
        assert all(value > 0 for value in estimates.values())

    def test_mapreduce_cheapest_distributed_loader(self, estimates):
        for name in ("giraph", "graphx", "graphlab"):
            assert estimates["mapreduce"] < estimates[name]

    def test_graphx_pays_more_than_giraph(self, estimates):
        assert estimates["graphx"] > estimates["giraph"]
