"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def test_run_command(tmp_path, capsys):
    report = tmp_path / "report.txt"
    db = tmp_path / "results.jsonl"
    code = main(
        [
            "run",
            "--graphs", "graph500-7",
            "--platforms", "giraph,neo4j",
            "--algorithms", "BFS,CONN",
            "--report", str(report),
            "--results-db", str(db),
        ]
    )
    assert code == 0
    assert report.exists()
    out = capsys.readouterr().out
    assert "Graphalytics benchmark report" in out
    assert "results appended" in out
    assert db.exists()


def test_run_command_no_validate(tmp_path):
    report = tmp_path / "report.txt"
    code = main(
        [
            "run",
            "--graphs", "graph500-7",
            "--platforms", "giraph",
            "--algorithms", "STATS",
            "--no-validate",
            "--report", str(report),
        ]
    )
    assert code == 0


def test_datagen_command(tmp_path, capsys):
    output = tmp_path / "social.e"
    code = main(
        [
            "datagen",
            "--persons", "500",
            "--distribution", "geometric",
            "--output", str(output),
        ]
    )
    assert code == 0
    assert output.exists()
    assert "500 persons" in capsys.readouterr().out


def test_characterize_command(capsys):
    code = main(["characterize", "graph500-7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "graph500-7" in out
    assert "AvgCC" in out


def test_quality_command(capsys):
    code = main(["quality", "--root", "src/repro/core"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean-complexity" in out


def _write_fake_platform_tree(root, engine_source):
    package = root / "repro" / "platforms" / "fake"
    package.mkdir(parents=True)
    (package / "engine.py").write_text(engine_source)
    return root


def test_quality_gate_round_trip(tmp_path, capsys):
    tree = _write_fake_platform_tree(
        tmp_path / "clean",
        'def step(meter):\n    """Doc."""\n    meter.charge_compute(0, 1)\n',
    )
    baseline = tmp_path / "baseline.json"
    code = main(
        ["quality", "--root", str(tree), "--update-baseline",
         "--baseline", str(baseline)]
    )
    assert code == 0
    assert baseline.exists()
    capsys.readouterr()
    code = main(
        ["quality", "--root", str(tree), "--baseline", str(baseline), "--check"]
    )
    assert code == 0
    assert "quality gate passed" in capsys.readouterr().out


def test_quality_gate_fails_on_planted_determinism_bug(tmp_path, capsys):
    tree = _write_fake_platform_tree(
        tmp_path / "clean",
        'def step(meter):\n    """Doc."""\n    meter.charge_compute(0, 1)\n',
    )
    baseline = tmp_path / "baseline.json"
    main(["quality", "--root", str(tree), "--update-baseline",
          "--baseline", str(baseline)])
    capsys.readouterr()
    engine = tree / "repro" / "platforms" / "fake" / "engine.py"
    engine.write_text(
        engine.read_text()
        + "import random\n\n\ndef jitter():\n"
        '    """Doc."""\n    return random.random()\n'
    )
    code = main(
        ["quality", "--root", str(tree), "--baseline", str(baseline), "--check"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "quality gate FAILED" in out
    assert "[determinism]" in out


def test_quality_gate_fails_on_uncharged_loop(tmp_path, capsys):
    tree = _write_fake_platform_tree(
        tmp_path / "clean",
        'def step(meter):\n    """Doc."""\n    meter.charge_compute(0, 1)\n',
    )
    baseline = tmp_path / "baseline.json"
    main(["quality", "--root", str(tree), "--update-baseline",
          "--baseline", str(baseline)])
    capsys.readouterr()
    engine = tree / "repro" / "platforms" / "fake" / "engine.py"
    engine.write_text(
        engine.read_text()
        + "\n\ndef scan(self):\n"
        '    """Doc."""\n'
        "    total = 0\n"
        "    for vertex in self.adjacency:\n"
        "        total += vertex\n"
        "    return total\n"
    )
    code = main(
        ["quality", "--root", str(tree), "--baseline", str(baseline), "--check"]
    )
    assert code == 1
    assert "[cost-accounting]" in capsys.readouterr().out


def test_quality_check_without_baseline_gates_on_errors(tmp_path, capsys):
    tree = _write_fake_platform_tree(
        tmp_path / "dirty",
        "import random\n\n\ndef jitter():\n"
        '    """Doc."""\n    return random.random()\n',
    )
    code = main(["quality", "--root", str(tree), "--check"])
    assert code == 1
    assert "[determinism]" in capsys.readouterr().out


def test_quality_check_missing_baseline_is_clean_error(tmp_path, capsys):
    code = main(
        ["quality", "--root", "src/repro/analysis",
         "--baseline", str(tmp_path / "absent.json"), "--check"]
    )
    assert code == 2
    assert "does not exist" in capsys.readouterr().out


def test_quality_check_corrupt_baseline_is_clean_error(tmp_path, capsys):
    bad = tmp_path / "corrupt.json"
    bad.write_text("{not json")
    code = main(
        ["quality", "--root", "src/repro/analysis",
         "--baseline", str(bad), "--check"]
    )
    assert code == 2
    assert "unreadable baseline" in capsys.readouterr().out


def test_quality_json_report(tmp_path, capsys):
    import json

    out_path = tmp_path / "quality.json"
    code = main(
        ["quality", "--root", "src/repro/analysis", "--json", str(out_path)]
    )
    assert code == 0
    document = json.loads(out_path.read_text())
    assert document["summary"]["files"] > 0


def test_quality_disable_rule(tmp_path, capsys):
    tree = _write_fake_platform_tree(
        tmp_path / "dirty",
        "import random\n\n\ndef jitter():\n"
        '    """Doc."""\n    return random.random()\n',
    )
    code = main(
        ["quality", "--root", str(tree), "--check", "--disable", "determinism"]
    )
    assert code == 0


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_run_command_html_report(tmp_path):
    html = tmp_path / "report.html"
    code = main(
        [
            "run",
            "--graphs", "graph500-7",
            "--platforms", "giraph",
            "--algorithms", "STATS",
            "--report", str(tmp_path / "report.txt"),
            "--html", str(html),
        ]
    )
    assert code == 0
    assert html.exists()
    assert "<html" in html.read_text()


def test_datagen_weibull(tmp_path):
    output = tmp_path / "w.e"
    code = main(
        ["datagen", "--persons", "300", "--distribution", "weibull",
         "--output", str(output)]
    )
    assert code == 0
    assert output.exists()


def test_leaderboard_command(tmp_path, capsys):
    db = tmp_path / "results.jsonl"
    main(
        [
            "run",
            "--graphs", "graph500-7",
            "--platforms", "giraph,neo4j",
            "--algorithms", "CONN",
            "--report", str(tmp_path / "r.txt"),
            "--results-db", str(db),
        ]
    )
    capsys.readouterr()
    code = main(
        ["leaderboard", "--results-db", str(db),
         "--graph", "graph500-7", "--algorithm", "conn"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1. neo4j" in out or "1. giraph" in out


def test_leaderboard_empty(tmp_path, capsys):
    code = main(
        ["leaderboard", "--results-db", str(tmp_path / "none.jsonl"),
         "--graph", "g", "--algorithm", "BFS"]
    )
    assert code == 1


def test_perf_command_quick(tmp_path, capsys):
    output = tmp_path / "BENCH_kernels.json"
    code = main(["perf", "--quick", "--output", str(output)])
    assert code == 0
    assert "kernel timings written" in capsys.readouterr().out
    payload = json.loads(output.read_text(encoding="utf-8"))
    assert payload["schema"] == "graphalytics-perf/2"
    assert payload["repeats"] == 1
    names = [kernel["name"] for kernel in payload["kernels"]]
    assert "pregel-bfs-frontier" in names
    assert "datagen-rmat" in names
    assert "graph-load" in names
    for kernel in payload["kernels"]:
        # Per-kernel wall-clock and simulated-seconds fields, well
        # formed: the contract the tracked report relies on.
        assert kernel["bulk_wall_seconds"] > 0.0
        assert kernel["scalar_wall_seconds"] > 0.0
        assert kernel["bulk_wall_mean"] > 0.0
        assert kernel["scalar_wall_mean"] > 0.0
        assert kernel["bulk_wall_std"] >= 0.0
        assert kernel["scalar_wall_std"] >= 0.0
        if kernel["name"] in ("datagen-rmat", "graph-load"):
            # Micro kernels have no cost model underneath; their
            # match bit asserts artifact equality instead.
            assert kernel["simulated_seconds"] == 0.0
        else:
            assert kernel["simulated_seconds"] > 0.0
            assert (
                kernel["simulated_seconds"]
                == kernel["scalar_simulated_seconds"]
            )
        assert kernel["simulated_match"] is True


def test_perf_command_json_output(tmp_path, capsys):
    output = tmp_path / "BENCH_kernels.json"
    code = main(
        ["perf", "--quick", "--json", "--kernels", "graph-load",
         "--output", str(output)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "graphalytics-perf/2"
    (kernel,) = payload["kernels"]
    assert kernel["name"] == "graph-load"
    assert "conservative_speedup" in kernel
    assert "bulk_wall_std" in kernel


def test_perf_command_rejects_unknown_kernel(capsys):
    code = main(["perf", "--quick", "--kernels", "no-such-kernel"])
    assert code == 2
    assert "unknown kernels" in capsys.readouterr().out


def test_run_with_config_file(tmp_path, capsys):
    config = tmp_path / "bench.ini"
    config.write_text(
        "[benchmark]\n"
        "platforms = giraph\n"
        "graphs = graph500-7\n"
        "algorithms = STATS\n"
    )
    code = main(
        [
            "run",
            "--config", str(config),
            "--graphs", "graph500-7",
            "--report", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "giraph" in out
    assert "neo4j" not in out.split("Runtime")[1]  # only configured platform ran


def test_run_with_mem_limit_records_failure_cells(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = main(
        [
            "run",
            "--graphs", "graph500-7",
            "--platforms", "giraph,neo4j",
            "--algorithms", "BFS",
            "--mem-limit", "16K",
            "--report", str(report),
        ]
    )
    # Mixed outcome: giraph fits, neo4j OOMs; the run itself succeeds.
    assert code == 0
    out = capsys.readouterr().out
    assert "OOM" in out
    assert "out-of-memory" in out
    assert "mem-limit = 16384 bytes/worker" in out


def test_run_with_timeout_records_failure_cells(tmp_path, capsys):
    code = main(
        [
            "run",
            "--graphs", "graph500-7",
            "--platforms", "giraph,neo4j",
            "--algorithms", "BFS",
            "--timeout", "1e-9",
            "--report", str(tmp_path / "report.txt"),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "T/O" in out
    assert "timeout" in out


def test_run_with_injected_transient_fault_and_retry(tmp_path, capsys):
    code = main(
        [
            "run",
            "--graphs", "graph500-7",
            "--platforms", "giraph",
            "--algorithms", "BFS",
            "--inject", "crash:worker=0,round=0;transient:attempts=1",
            "--retries", "1",
            "--report", str(tmp_path / "report.txt"),
        ]
    )
    assert code == 0  # the retry recovered every cell
    assert "No failures." in capsys.readouterr().out


def test_run_with_permanent_injected_crash(tmp_path, capsys):
    code = main(
        [
            "run",
            "--graphs", "graph500-7",
            "--platforms", "giraph",
            "--algorithms", "BFS",
            "--inject", "crash:worker=0,round=0",
            "--report", str(tmp_path / "report.txt"),
        ]
    )
    assert code == 1
    assert "worker-crash" in capsys.readouterr().out


def test_selfcheck_smoke(capsys):
    # --skip-tests: selfcheck must not recurse into the suite that is
    # running it; the quality-gate and quick-perf stages run for real.
    code = main(["selfcheck", "--skip-tests"])
    assert code == 0
    out = capsys.readouterr().out
    assert "selfcheck summary:" in out
    assert "tests          skipped" in out
    assert "quality gate   ok" in out
    assert "audit gate     ok" in out
    assert "perf --quick   ok" in out
    assert "trace replay   ok" in out
    assert "calibrate smoke ok" in out
    assert "selfcheck: PASS" in out


def test_selfcheck_all_stages_skippable(capsys):
    code = main(
        [
            "selfcheck", "--skip-tests", "--skip-quality", "--skip-audit",
            "--skip-perf", "--skip-trace", "--skip-calibrate",
        ]
    )
    assert code == 0
    assert "selfcheck: PASS" in capsys.readouterr().out


def test_cli_flags_override_config(tmp_path, capsys):
    config = tmp_path / "bench.ini"
    config.write_text("[benchmark]\nplatforms = giraph\nalgorithms = STATS\n")
    code = main(
        [
            "run",
            "--config", str(config),
            "--graphs", "graph500-7",
            "--algorithms", "CONN",
            "--report", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "CONN" in out
    assert "STATS    graph500-7" not in out


def _traced_run(tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    code = main(
        [
            "run",
            "--graphs", "graph500-7",
            "--platforms", "giraph",
            "--algorithms", "BFS",
            "--trace", str(trace_dir),
            "--report", str(tmp_path / "report.txt"),
        ]
    )
    assert code == 0
    assert "1 trace file(s) written" in capsys.readouterr().out
    (trace,) = sorted(trace_dir.glob("*.jsonl"))
    return trace


def test_run_with_trace_writes_per_cell_files(tmp_path, capsys):
    trace = _traced_run(tmp_path, capsys)
    assert trace.name == "giraph_graph500-7_BFS.jsonl"
    first = json.loads(trace.read_text().splitlines()[0])
    assert first["event"] == "run-begin"


def test_trace_command_summarizes(tmp_path, capsys):
    trace = _traced_run(tmp_path, capsys)
    code = main(["trace", str(trace), "--rounds"])
    assert code == 0
    out = capsys.readouterr().out
    assert "giraph/graph500-7/bfs" in out
    assert "status=success" in out
    assert "dominant=startup" in out
    assert "time F=" in out
    assert "superstep-0" in out


def test_trace_command_missing_file(capsys):
    assert main(["trace", "/nonexistent/trace.jsonl"]) == 2
    assert "cannot read trace" in capsys.readouterr().out


def test_analyze_command_self_comparison_clean(tmp_path, capsys):
    trace = _traced_run(tmp_path, capsys)
    code = main(["analyze", str(trace), str(trace), "--check"])
    assert code == 0
    assert "no regressions" in capsys.readouterr().out


def test_analyze_command_flags_regressions(tmp_path, capsys):
    old = tmp_path / "old.jsonl"
    new = tmp_path / "new.jsonl"
    row = {
        "platform": "giraph", "graph": "tiny", "algorithm": "BFS",
        "status": "success", "runtime_seconds": 10.0, "num_rounds": 5,
        "remote_bytes": 100.0, "dominant_chokepoint": "startup",
    }
    old.write_text(json.dumps(row) + "\n")
    row["runtime_seconds"] = 20.0
    row["dominant_chokepoint"] = "network"
    new.write_text(json.dumps(row) + "\n")
    # Without --check the regressions are reported but not gated.
    assert main(["analyze", str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "2 regression(s):" in out
    assert "simulated time grew 100.0%" in out
    assert "dominant choke point moved startup -> network" in out
    assert main(["analyze", str(old), str(new), "--check"]) == 1


def test_analyze_command_unreadable_input(tmp_path, capsys):
    empty = tmp_path / "nothing.jsonl"
    empty.write_text('{"unrelated": 1}\n')
    assert main(["analyze", str(empty), str(empty)]) == 2
    assert "error:" in capsys.readouterr().out
