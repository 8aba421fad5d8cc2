"""CLI tests for ``graphalytics audit`` and the ``run`` rigor flags."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main

RIGOROUS = """\
[benchmark]
platforms = giraph, graphx
graphs = graph500-12, patents, road-16
algorithms = BFS
time_limit_seconds = 10000
validate = true
repetitions = 5
warmup = 1
"""

LAX = """\
[benchmark]
platforms = giraph
graphs = graph500-7
algorithms = BFS
repetitions = 1
validate = false
"""


def test_audit_reports_findings(tmp_path, capsys):
    (tmp_path / "bench.ini").write_text(LAX)
    code = main(["audit", str(tmp_path)])
    assert code == 0  # report-only without --check
    out = capsys.readouterr().out
    assert "single-run" in out
    assert "validation-off" in out


def test_audit_check_fails_on_errors(tmp_path, capsys):
    (tmp_path / "bench.ini").write_text(LAX)
    code = main(["audit", str(tmp_path), "--check"])
    assert code == 1
    assert "audit gate FAILED" in capsys.readouterr().out


def test_audit_check_passes_clean_suite(tmp_path, capsys):
    (tmp_path / "bench.ini").write_text(RIGOROUS)
    code = main(["audit", str(tmp_path), "--check"])
    assert code == 0
    assert "audit gate passed" in capsys.readouterr().out


def test_audit_baseline_round_trip(tmp_path, capsys):
    (tmp_path / "bench.ini").write_text(LAX)
    baseline = tmp_path / "audit-baseline.json"
    assert main(
        ["audit", str(tmp_path), "--update-baseline",
         "--baseline", str(baseline)]
    ) == 0
    assert baseline.exists()
    # Unchanged artifacts pass against their own baseline even though
    # they carry findings: the gate is regression-based.
    assert main(
        ["audit", str(tmp_path), "--check", "--baseline", str(baseline)]
    ) == 0
    # A new fault regresses the gate.
    (tmp_path / "extra.ini").write_text(
        "[graph]\nname = a\ncatalog = graph500-8\nseed = 1\n"
    )
    (tmp_path / "extra2.ini").write_text(
        "[graph]\nname = b\ncatalog = graph500-9\nseed = 1\n"
    )
    capsys.readouterr()
    assert main(
        ["audit", str(tmp_path), "--check", "--baseline", str(baseline)]
    ) == 1
    assert "seed-monoculture" in capsys.readouterr().out


def test_audit_json_report(tmp_path):
    (tmp_path / "bench.ini").write_text(LAX)
    json_path = tmp_path / "audit.json"
    assert main(["audit", str(tmp_path), "--json", str(json_path)]) == 0
    document = json.loads(json_path.read_text())
    rules = {
        finding["rule"]
        for entry in document["files"]
        for finding in entry["findings"]
    }
    assert "single-run" in rules


def test_audit_min_repetitions_flag(tmp_path, capsys):
    (tmp_path / "bench.ini").write_text(
        RIGOROUS.replace("repetitions = 5", "repetitions = 4")
    )
    assert main(["audit", str(tmp_path), "--check"]) == 0
    capsys.readouterr()
    assert main(
        ["audit", str(tmp_path), "--check", "--min-repetitions", "10"]
    ) == 1


def test_audit_disable_rule(tmp_path, capsys):
    (tmp_path / "bench.ini").write_text(LAX)
    code = main(
        ["audit", str(tmp_path), "--disable",
         "single-run,validation-off,no-warmup,no-time-limit,"
         "dataset-shape-bias", "--check"]
    )
    assert code == 0


def test_audit_empty_path_is_error(tmp_path, capsys):
    code = main(["audit", str(tmp_path / "nothing-here")])
    assert code == 2
    assert "no experiment artifacts" in capsys.readouterr().out


def test_shipped_configs_pass_committed_audit_baseline(capsys):
    # The acceptance bar: the repository's own suite audits clean
    # against the committed baseline.
    assert Path(".audit-baseline.json").exists()
    code = main(
        ["audit", "configs", "--check", "--baseline", ".audit-baseline.json"]
    )
    assert code == 0
    assert "audit gate passed" in capsys.readouterr().out


def test_run_audit_preflight_blocks_lax_spec(tmp_path, capsys):
    config = tmp_path / "bench.ini"
    config.write_text(LAX)
    code = main(
        ["run", "--config", str(config), "--audit",
         "--report", str(tmp_path / "r.txt")]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert "aborting" in out
    assert not (tmp_path / "r.txt").exists()


def test_run_audit_preflight_allows_rigorous_spec(tmp_path, capsys):
    config = tmp_path / "bench.ini"
    config.write_text(
        "[benchmark]\nplatforms = giraph\ngraphs = graph500-7\n"
        "algorithms = BFS\ntime_limit_seconds = 10000\nvalidate = true\n"
        "repetitions = 3\nwarmup = 1\n"
    )
    code = main(
        ["run", "--config", str(config), "--audit",
         "--report", str(tmp_path / "r.txt")]
    )
    assert code == 0
    assert (tmp_path / "r.txt").exists()


def test_run_repetitions_flag_populates_stats(tmp_path, capsys):
    db = tmp_path / "results.jsonl"
    # A fault-free cell's repetitions are identical and print no
    # spread; this plan slows only the first two executions, so the
    # measured repetitions really differ.
    code = main(
        ["run", "--graphs", "graph500-7", "--platforms", "giraph",
         "--algorithms", "BFS", "--repetitions", "3", "--warmup", "1",
         "--inject", "straggler:workers=0,factor=4;transient:attempts=2",
         "--report", str(tmp_path / "r.txt"), "--results-db", str(db)]
    )
    assert code == 0
    row = json.loads(db.read_text().splitlines()[0])
    assert row["num_repetitions"] == 3
    assert row["runtime_std"] is not None
    assert "±" in capsys.readouterr().out
