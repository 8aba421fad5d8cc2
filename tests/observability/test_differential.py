"""Differential contract: tracing never changes what gets recorded.

Every platform's benchmark cell must produce a bit-identical
:class:`~repro.core.cost.RunProfile` whether or not a trace sink is
attached, and each written trace must replay to exactly that profile.
This is the acceptance gate of the observability layer: observers
observe; they do not perturb.
"""

import pytest

from repro.core.benchmark import BenchmarkCore
from repro.core.cost import ClusterSpec
from repro.core.workload import Algorithm, BenchmarkRunSpec
from repro.observability import profile_fingerprint, verify_replay
from repro.platforms.registry import available_platforms, create_platform_fleet


def _run_suite(small_rmat, trace_dir=None):
    platforms = create_platform_fleet(ClusterSpec.paper_distributed())
    core = BenchmarkCore(
        platforms, {"tiny": small_rmat}, trace_dir=trace_dir
    )
    return core.run(BenchmarkRunSpec(algorithms=[Algorithm.BFS]))


@pytest.fixture(scope="module")
def traced_and_untraced(tmp_path_factory, request):
    from repro.graph.generators import rmat_graph

    graph = rmat_graph(8, edge_factor=8, seed=7)
    trace_dir = tmp_path_factory.mktemp("traces")
    return _run_suite(graph), _run_suite(graph, trace_dir=trace_dir)


def test_every_platform_ran(traced_and_untraced):
    untraced, traced = traced_and_untraced
    platforms = {r.platform for r in untraced.results}
    assert platforms == set(available_platforms())
    assert all(r.succeeded for r in untraced.results)
    assert all(r.succeeded for r in traced.results)


def test_profiles_bit_identical_with_tracing(traced_and_untraced):
    untraced, traced = traced_and_untraced
    for bare in untraced.results:
        observed = traced.lookup(
            bare.platform, bare.graph_name, bare.algorithm
        )
        assert profile_fingerprint(bare.run.profile) == profile_fingerprint(
            observed.run.profile
        ), f"tracing changed {bare.platform}'s recorded profile"
        assert bare.runtime_seconds == observed.runtime_seconds


def test_every_trace_replays_to_its_profile(traced_and_untraced):
    _untraced, traced = traced_and_untraced
    for result in traced.results:
        assert result.trace_path is not None
        mismatches = verify_replay(result.trace_path, result.run.profile)
        assert mismatches == [], (
            f"{result.platform}: {mismatches}"
        )


def test_chokepoints_attached_to_every_cell(traced_and_untraced):
    untraced, _traced = traced_and_untraced
    for result in untraced.results:
        assert result.chokepoints is not None
        assert result.chokepoints.breakdown == result.run.profile.breakdown()
