"""MapReduce platform driver: chains jobs and extracts outputs."""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import UNREACHABLE
from repro.algorithms.evo import evo_arrivals, evo_links
from repro.algorithms.sssp import UNREACHABLE_DISTANCE
from repro.algorithms.stats import GraphStats
from repro.core import etl
from repro.core.cost import ClusterSpec, CostMeter, RunProfile
from repro.core.platform_api import GraphHandle, Platform
from repro.core.workload import Algorithm, AlgorithmParams, sssp_round_bound

from repro.platforms.mapreduce.batch import RecordBatch
from repro.platforms.mapreduce.engine import (
    ELEMENT_BYTES,
    RECORD_BYTES,
    MapReduceEngine,
)
from repro.platforms.mapreduce.jobs import (
    BFSIterationJob,
    CDIterationJob,
    ConnIterationJob,
    EvoHopJob,
    LCCJob,
    PageRankIterationJob,
    SSSPIterationJob,
    StatsAggregationJob,
    StatsTriangleJob,
)

__all__ = ["MapReducePlatform"]


class MapReducePlatform(Platform):
    """Hadoop MapReduce v2 stand-in.

    Iterative algorithms run one (or more) jobs per iteration, paying
    job startup, the full graph's disk round-trip, shuffle, and sort
    every time — but holding only fixed-size buffers in memory, so the
    driver completes even the workloads that crash the in-memory
    platforms ("does not crash even when processing the largest
    workload").
    """

    name = "mapreduce"

    #: Bound on driver-side iterations; HashMin label propagation on a
    #: path graph needs up to |V| rounds, which would take years on
    #: real Hadoop — the benchmark's time limit triggers first.
    MAX_ITERATIONS = 100

    def __init__(self, cluster: ClusterSpec, bulk: bool = True):
        super().__init__(cluster)
        #: Columnar ``RecordBatch`` jobs for BFS, CONN, SSSP and the
        #: STATS triangle job, and batched shuffle/byte accounting for
        #: the rest; ``bulk=False`` forces the per-record scalar path
        #: (the cost profile is identical either way).
        self.bulk = bulk

    def _load(self, name: str, graph: Graph) -> GraphHandle:
        undirected = graph.to_undirected()
        # One adjacency record per vertex, sized as ``record_size``
        # sizes it; the integer-valued terms make the closed form the
        # exact per-record sum (an empty graph stores the int 0).
        num_vertices = undirected.num_vertices
        storage = (
            RECORD_BYTES * num_vertices
            + ELEMENT_BYTES * len(undirected.csr()[1])
            if num_vertices
            else 0
        )
        # ETL: copy the adjacency records into HDFS (3-way replicated);
        # no in-memory structures to build — the cheapest load of all.
        etl_time = etl.replicated_write_seconds(storage, 3, self.cluster)
        return GraphHandle(
            name=name,
            platform=self.name,
            graph=undirected,
            storage_bytes=storage,
            etl_simulated_seconds=etl_time,
        )

    def _execute(
        self, handle: GraphHandle, algorithm: Algorithm, params: AlgorithmParams
    ) -> tuple[object, RunProfile]:
        meter = CostMeter(self.cluster, faults=self.faults, sinks=self.sinks)
        engine = MapReduceEngine(self.cluster, meter, bulk=self.bulk)
        try:
            if algorithm is Algorithm.BFS:
                source = params.resolve_bfs_source(handle.graph)
                output = self._run_bfs(engine, handle, source)
            elif algorithm is Algorithm.SSSP:
                source = params.resolve_sssp_source(handle.graph)
                output = self._run_sssp(engine, handle.graph, source)
            elif algorithm is Algorithm.STATS:
                output = self._run_stats(engine, handle)
            elif algorithm is Algorithm.CONN:
                output = self._run_conn(engine, handle)
            else:
                runner = {
                    Algorithm.CD: self._run_cd,
                    Algorithm.EVO: self._run_evo,
                    Algorithm.PR: self._run_pagerank,
                    Algorithm.LCC: self._run_lcc,
                }[algorithm]
                output = runner(engine, handle.adjacency(), params)
        finally:
            engine.close()
        return output, meter.profile

    # -- algorithms ------------------------------------------------------

    def _run_bfs(self, engine, handle, source):
        if engine.bulk:
            batch = RecordBatch.from_graph(handle.graph)
            batch.columns["dist"] = np.where(
                batch.keys == source, 0, UNREACHABLE
            ).astype(np.int64)
            for iteration in range(1, self.MAX_ITERATIONS + 1):
                result = engine.run_job(BFSIterationJob(iteration), batch)
                batch = result.output
                if result.counters.get("changed", 0) == 0:
                    break
            return {
                int(v): int(d)
                for v, d in zip(
                    batch.keys.tolist(), batch.columns["dist"].tolist()
                )
            }
        records = [
            (v, (adj, 0 if v == source else UNREACHABLE))
            for v, adj in handle.adjacency().items()
        ]
        for iteration in range(1, self.MAX_ITERATIONS + 1):
            result = engine.run_job(BFSIterationJob(iteration), records)
            records = result.output
            if result.counters.get("changed", 0) == 0:
                break
        return {v: dist for v, (adj, dist) in records}

    def _run_conn(self, engine, handle):
        if engine.bulk:
            batch = RecordBatch.from_graph(handle.graph)
            batch.columns["label"] = batch.keys.copy()
            for iteration in range(1, self.MAX_ITERATIONS + 1):
                result = engine.run_job(ConnIterationJob(iteration), batch)
                batch = result.output
                if result.counters.get("changed", 0) == 0:
                    break
            return {
                int(v): int(lbl)
                for v, lbl in zip(
                    batch.keys.tolist(), batch.columns["label"].tolist()
                )
            }
        records = [(v, (adj, v)) for v, adj in handle.adjacency().items()]
        for iteration in range(1, self.MAX_ITERATIONS + 1):
            result = engine.run_job(ConnIterationJob(iteration), records)
            records = result.output
            if result.counters.get("changed", 0) == 0:
                break
        return {v: label for v, (adj, label) in records}

    def _run_cd(self, engine, adjacency, params):
        records = [(v, (adj, v, 1.0)) for v, adj in adjacency.items()]
        for iteration in range(1, params.cd_max_iterations + 1):
            job = CDIterationJob(
                iteration, params.cd_hop_attenuation, params.cd_node_preference
            )
            result = engine.run_job(job, records)
            records = result.output
            if result.counters.get("changed", 0) == 0:
                break
        return {v: label for v, (adj, label, score) in records}

    def _run_stats(self, engine, handle):
        # The triangle job runs columnar under bulk; the aggregation
        # job sums its record output on both paths.
        if engine.bulk:
            partials = engine.run_broadcast_job(
                StatsTriangleJob(), RecordBatch.from_graph(handle.graph)
            )
        else:
            partials = engine.run_job(
                StatsTriangleJob(), list(handle.adjacency().items())
            )
        totals = engine.run_job(StatsAggregationJob(), partials.output)
        sums = dict(totals.output)
        return GraphStats.from_sum(
            int(sums.get("vertices", 0)),
            int(sums.get("edges", 0)) // 2,
            sums.get("clustering_sum", 0.0),
        )

    def _run_pagerank(self, engine, adjacency, params):
        n = len(adjacency)
        records = [(v, (adj, 1.0 / n)) for v, adj in adjacency.items()]
        for iteration in range(1, params.pagerank_iterations + 1):
            job = PageRankIterationJob(iteration, n, params.pagerank_damping)
            records = engine.run_job(job, records).output
        return {v: rank for v, (adj, rank) in records}

    def _run_sssp(self, engine, graph, source):
        # Synchronous relaxation settles within |V| rounds (positive
        # weights); the driver loops on the ``changed`` counter.
        bound = sssp_round_bound(graph.num_vertices)
        if engine.bulk:
            batch = RecordBatch.from_graph(graph, weighted=True)
            is_source = batch.keys == source
            batch.columns["dist"] = np.where(
                is_source, 0.0, UNREACHABLE_DISTANCE
            )
            batch.columns["changed"] = is_source
            for iteration in range(1, bound):
                result = engine.run_job(SSSPIterationJob(iteration), batch)
                batch = result.output
                if result.counters.get("changed", 0) == 0:
                    break
            return dict(
                zip(batch.keys.tolist(), batch.columns["dist"].tolist())
            )
        records = [
            (v, (tuple(pairs), 0.0 if v == source else UNREACHABLE_DISTANCE,
                 v == source))
            for v, pairs in graph.weighted_adjacency().items()
        ]
        for iteration in range(1, bound):
            result = engine.run_job(SSSPIterationJob(iteration), records)
            records = result.output
            if result.counters.get("changed", 0) == 0:
                break
        return {v: dist for v, (wadj, dist, changed) in records}

    def _run_lcc(self, engine, adjacency, params):
        records = list(adjacency.items())
        return dict(engine.run_job(LCCJob(), records).output)

    def _run_evo(self, engine, adjacency, params):
        arrivals = evo_arrivals(
            sorted(adjacency), params.evo_new_vertices, params.evo_seed
        )
        seeds: dict[int, dict[int, int]] = {}
        for arrival, ambassador in arrivals.items():
            seeds.setdefault(ambassador, {})[arrival] = 0
        records = [
            (v, (adj, dict(seeds.get(v, {})), dict(seeds.get(v, {}))))
            for v, adj in adjacency.items()
        ]
        for hop in range(params.evo_max_hops):
            job = EvoHopJob(
                params.evo_p_forward, params.evo_max_hops, params.evo_seed, hop
            )
            result = engine.run_job(job, records)
            records = result.output
            if result.counters.get("burned", 0) == 0:
                break
        return evo_links(
            arrivals, ((v, burned) for v, (_adj, burned, _fresh) in records)
        )
