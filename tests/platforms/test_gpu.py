"""Unit tests for the GPU BSP engine (Medusa model)."""

from dataclasses import replace

import pytest

from repro.core.cost import CostMeter, MemoryBudgetExceeded
from repro.core.errors import PlatformFailure
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.generators import rmat_graph
from repro.graph.graph import Graph
from repro.platforms.gpu.driver import MedusaPlatform
from repro.platforms.gpu.engine import WARP_SIZE, GPUEngine, gpu_device_spec
from repro.platforms.pregel.programs import BFSProgram, ConnProgram


def _device_with_memory(memory_bytes: float):
    spec = gpu_device_spec()
    return replace(
        spec,
        hardware=replace(spec.hardware, memory_bytes_per_worker=memory_bytes),
    )


@pytest.fixture
def device_spec():
    return gpu_device_spec()


class TestEngine:
    def test_reuses_pregel_programs(self, device_spec):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        engine = GPUEngine(graph, device_spec)
        result = engine.run(BFSProgram(source=0))
        assert result.values == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_dense_kernels_touch_all_vertices(self, device_spec):
        # BFS from an isolated corner: every kernel still pays for
        # all warps (dense launch), unlike the cluster engines.
        graph = Graph.from_edges([(0, 1)], vertices=range(200))
        meter = CostMeter(device_spec)
        engine = GPUEngine(graph, device_spec, meter)
        engine.run(BFSProgram(source=0))
        warps = -(-200 // WARP_SIZE)
        for record in meter.profile.rounds:
            min_lane_ops = warps * WARP_SIZE / device_spec.hardware.cpu.cores
            assert sum(record.ops_per_worker) >= min_lane_ops * 0.99

    def test_warp_divergence_penalizes_skew(self, device_spec):
        # Same total edges: a hub graph costs more lane-ops than a
        # uniform ring because one thread per warp does all the work.
        hub = Graph.from_edges([(0, i) for i in range(1, 257)])
        ring = Graph.from_edges(
            [(i, (i + 1) % 257) for i in range(257)]
        )
        costs = {}
        for name, graph in (("hub", hub), ("ring", ring)):
            meter = CostMeter(device_spec)
            GPUEngine(graph, device_spec, meter).run(ConnProgram())
            costs[name] = sum(
                sum(r.ops_per_worker) for r in meter.profile.rounds
            ) / meter.profile.num_rounds
        assert costs["hub"] > 1.5 * costs["ring"]

    def test_device_memory_enforced(self):
        tiny = _device_with_memory(512.0)
        graph = rmat_graph(7, seed=1)
        engine = GPUEngine(graph, tiny)
        with pytest.raises(MemoryBudgetExceeded):
            engine.run(BFSProgram(source=int(graph.vertices[0])))

    def test_message_memory_released(self, device_spec):
        graph = rmat_graph(7, seed=2)
        meter = CostMeter(device_spec)
        engine = GPUEngine(graph, device_spec, meter)
        engine.run(ConnProgram())
        assert meter.memory_in_use(0) == 0.0


class TestDriver:
    def test_all_algorithms_validate(self, small_rmat):
        from repro.core.validation import OutputValidator

        platform = MedusaPlatform()
        weighted = small_rmat.with_uniform_weights(seed=2)
        handle = platform.upload_graph("g", small_rmat)
        weighted_handle = platform.upload_graph("gw", weighted)
        params = AlgorithmParams(evo_new_vertices=20)
        validator = OutputValidator()
        for algorithm in Algorithm:
            # SSSP refuses unweighted graphs; it runs on the weighted twin.
            if algorithm is Algorithm.SSSP:
                run = platform.run_algorithm(weighted_handle, algorithm, params)
                validator.validate(weighted, algorithm, params, run.output)
            else:
                run = platform.run_algorithm(handle, algorithm, params)
                validator.validate(small_rmat, algorithm, params, run.output)

    def test_oom_surfaces_as_platform_failure(self, small_rmat):
        tiny = _device_with_memory(1024.0)
        platform = MedusaPlatform(tiny)
        with pytest.raises(PlatformFailure, match="out-of-memory"):
            platform.upload_graph("g", small_rmat)

    def test_etl_includes_transfer(self, small_rmat):
        platform = MedusaPlatform()
        handle = platform.upload_graph("g", small_rmat)
        assert handle.etl_simulated_seconds > 0

    def test_single_device_required(self):
        from repro.core.cost import ClusterSpec

        with pytest.raises(ValueError, match="single worker"):
            MedusaPlatform(ClusterSpec.paper_distributed())
