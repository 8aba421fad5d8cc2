"""Meta-tests keeping code, docs, and benches consistent."""

import ast
import re
from pathlib import Path

import pytest

from repro.core.workload import Algorithm
from repro.platforms.registry import available_platforms

ROOT = Path(__file__).resolve().parent.parent


def test_readme_lists_every_bench_module():
    readme = (ROOT / "README.md").read_text()
    for bench in sorted((ROOT / "benchmarks").glob("test_*.py")):
        if bench.name == "test_ablation_scaling.py":
            continue  # methodology check, grouped under ablations
        assert bench.name in readme, f"README missing {bench.name}"


def test_design_covers_every_registered_platform():
    design = (ROOT / "DESIGN.md").read_text().lower()
    package_of = {
        "giraph": "pregel",
        "mapreduce": "mapreduce",
        "graphx": "rddgraph",
        "neo4j": "graphdb",
        "virtuoso": "columnar",
        "graphlab": "gas",
        "medusa": "gpu",
        "stratosphere": "dataflow",
    }
    for name in available_platforms():
        assert name in package_of, f"DESIGN mapping missing platform {name}"
        assert (
            f"repro.platforms.{package_of[name]}" in design
        ), f"DESIGN.md does not mention the package of {name}"


def test_every_example_is_a_runnable_script():
    examples = sorted((ROOT / "examples").glob("*.py"))
    assert len(examples) >= 7
    for path in examples:
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a module docstring"
        names = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert "main" in names, f"{path.name} lacks a main() entry point"
        assert '__name__ == "__main__"' in path.read_text()


def test_experiments_covers_every_figure_and_table():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    for anchor in ("Table 1", "Figure 1", "Figure 3", "Figure 4",
                   "Figure 5", "Section 3.4", "Section 3.5"):
        assert anchor in experiments, f"EXPERIMENTS.md missing {anchor}"


def test_all_five_algorithms_everywhere():
    """Every platform package implements all five algorithms."""
    from repro.core.cost import ClusterSpec
    from repro.platforms.registry import create_platform, is_single_machine

    for name in available_platforms():
        platform = (
            create_platform(name)
            if is_single_machine(name)
            else create_platform(name, ClusterSpec.paper_distributed())
        )
        assert set(platform.supported_algorithms()) == set(Algorithm), name


def test_version_consistent_with_pyproject():
    import repro

    pyproject = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"', pyproject, re.MULTILINE)
    assert match is not None
    assert repro.__version__ == match.group(1)


def test_static_analysis_gate_is_clean(src_quality_report):
    """The analyzer's own verdict on src/: no error findings.

    This is the Section 3.5 commit gate in-tree: determinism,
    cost-accounting, and BSP-race violations (all error severity) fail
    the build, and the committed baseline pins the warning counts.
    """
    from repro.analysis import load_baseline, quality_gate

    errors = [
        f"{file_report.path}:{finding.line}: [{finding.rule}] {finding.message}"
        for file_report, finding in src_quality_report.error_findings()
    ]
    assert errors == []

    baseline_path = ROOT / ".quality-baseline.json"
    assert baseline_path.exists(), "commit .quality-baseline.json"
    gate = quality_gate(src_quality_report, load_baseline(baseline_path))
    assert gate.passed, [str(r) for r in gate.regressions]


def test_benchmark_audit_gate_is_clean():
    """The shipped experiment suite audits clean against its baseline.

    The SoK-taxonomy audit (single runs, validation off, shape bias,
    seed monoculture, ...) must find nothing to complain about in the
    configs we ship, and the committed zero-finding baseline keeps it
    that way: a new finding is a gate regression, not a silent drift.
    """
    from repro.analysis import audit_paths, load_baseline, quality_gate

    report = audit_paths([ROOT / "configs"])
    errors = [
        f"{file_report.path}:{finding.line}: [{finding.rule}] {finding.message}"
        for file_report, finding in report.error_findings()
    ]
    assert errors == []

    baseline_path = ROOT / ".audit-baseline.json"
    assert baseline_path.exists(), "commit .audit-baseline.json"
    gate = quality_gate(report, load_baseline(baseline_path))
    assert gate.passed, [str(r) for r in gate.regressions]


def test_no_print_debugging_in_library():
    """The library speaks through reports and logs, not stray prints."""
    offenders = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.name == "cli.py":  # the CLI legitimately prints
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
