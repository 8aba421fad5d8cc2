"""Seed-sweep regression: distinct seeds, repeated runs, quiet audit.

ROADMAP item 5 (statistical rigor, after "SoK: The Faults in our Graph
Benchmarks") asks suites to vary generator seeds and to repeat
measurements. This regression pins both behaviors at once: a small
suite over three distinctly-seeded graphs at ``repetitions=3`` must
populate every cell's :class:`RuntimeStats` variance fields, and the
matching graph-config manifests must leave the ``seed-monoculture``
audit rule quiet (while the rule itself stays armed for genuinely
repeated seeds).
"""

from __future__ import annotations

from repro.analysis import audit_paths
from repro.core.benchmark import SUCCESS, BenchmarkCore
from repro.core.cost import ClusterSpec
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm, BenchmarkRunSpec
from repro.graph.generators import rmat_graph
from repro.platforms.pregel.driver import GiraphPlatform

#: Three distinct generator seeds — a deliberate anti-monoculture.
SWEEP_SEEDS = (11, 22, 33)

BENCHMARK_INI = """\
[benchmark]
platforms = giraph
graphs = sweep-s11, sweep-s22, sweep-s33
algorithms = PR
time_limit_seconds = 10000
validate = true
repetitions = 3
warmup = 1
"""

GRAPH_INI = """\
[graph]
name = sweep-s{seed}
catalog = graph500-8
seed = {seed}
"""


def _sweep_graphs():
    return {
        f"sweep-s{seed}": rmat_graph(scale=5, edge_factor=4, seed=seed)
        for seed in SWEEP_SEEDS
    }


def test_seed_sweep_populates_runtime_stats():
    """3 seeds x repetitions=3: every cell records three repetition
    runtimes and a full RuntimeStats (mean inside the CI, std exactly
    0 because fault-free repetitions are identical)."""
    core = BenchmarkCore(
        [GiraphPlatform(ClusterSpec.paper_distributed())],
        _sweep_graphs(),
        validator=OutputValidator(),
    )
    suite = core.run(
        BenchmarkRunSpec(algorithms=[Algorithm.PR], repetitions=3)
    )
    assert len(suite.results) == len(SWEEP_SEEDS)
    for result in suite.results:
        assert result.status == SUCCESS
        assert len(result.repetition_runtimes) == 3
        stats = result.runtime_stats
        assert stats is not None
        assert stats.n == 3
        assert stats.mean > 0
        assert stats.ci95_low <= stats.mean <= stats.ci95_high
        # Fault-free repetitions are derived from one execution: the
        # stats report that exact determinism as zero spread.
        assert stats.std == 0.0
        assert not stats.has_spread


def test_seed_sweep_graphs_differ():
    """Distinct seeds must actually produce distinct graphs — the
    sweep is pointless otherwise."""
    edge_sets = {
        name: frozenset(graph.iter_edges())
        for name, graph in _sweep_graphs().items()
    }
    assert len(set(edge_sets.values())) == len(SWEEP_SEEDS)


def test_seed_monoculture_rule_stays_quiet(tmp_path):
    """The sweep's manifests (three graph configs, three distinct
    seeds) pass the audit without a seed-monoculture finding."""
    (tmp_path / "benchmark.ini").write_text(BENCHMARK_INI, encoding="utf-8")
    for seed in SWEEP_SEEDS:
        (tmp_path / f"sweep-s{seed}.ini").write_text(
            GRAPH_INI.format(seed=seed), encoding="utf-8"
        )
    report = audit_paths([tmp_path])
    rules = {finding.rule for _, finding in report.iter_findings()}
    assert "seed-monoculture" not in rules
    assert "single-run" not in rules  # repetitions=3 satisfies the bar


def test_seed_monoculture_rule_still_armed(tmp_path):
    """Counter-check: pinning every graph to one seed DOES fire the
    rule — quiet above means 'passed', not 'disabled'."""
    (tmp_path / "benchmark.ini").write_text(BENCHMARK_INI, encoding="utf-8")
    for seed in SWEEP_SEEDS:
        (tmp_path / f"sweep-s{seed}.ini").write_text(
            GRAPH_INI.format(seed=11).replace(
                "name = sweep-s11", f"name = sweep-s{seed}"
            ),
            encoding="utf-8",
        )
    report = audit_paths([tmp_path])
    rules = {finding.rule for _, finding in report.iter_findings()}
    assert "seed-monoculture" in rules
