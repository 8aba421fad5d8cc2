"""The kernel harness times each path on its own, untimed upload."""

from repro.graph.generators import rmat_graph
from repro.perf import harness
from repro.platforms.graphdb import driver as neo4j_driver


def test_no_timed_repeat_builds_a_neo4j_record_store(monkeypatch):
    """A ``bulk=False`` neo4j upload builds the linked record store;
    the scalar repeats must not build it again inside the timing."""
    timing = False
    builds: list[bool] = []
    build_store = neo4j_driver.build_store
    time_run = harness._time_run

    def recording_build_store(*args, **kwargs):
        builds.append(timing)
        return build_store(*args, **kwargs)

    def flagged_time_run(*args, **kwargs):
        nonlocal timing
        timing = True
        try:
            return time_run(*args, **kwargs)
        finally:
            timing = False

    monkeypatch.setattr(neo4j_driver, "build_store", recording_build_store)
    monkeypatch.setattr(harness, "_time_run", flagged_time_run)
    kernels = [
        spec for spec in harness.default_kernels() if spec.platform == "neo4j"
    ]
    graph = rmat_graph(scale=6, edge_factor=4, seed=1, directed=True)
    report = harness.run_perf(
        scale=6, edge_factor=4, repeats=2, kernels=kernels, graph=graph
    )
    assert [kernel.name for kernel in report.kernels] == [
        spec.name for spec in kernels
    ]
    assert builds == [False] * len(kernels)
