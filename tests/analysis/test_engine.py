"""Unit tests for the rule engine: metrics, suppression, config, errors."""

import ast
import textwrap
import tokenize
from collections import Counter

import pytest

from repro.analysis import (
    AnalysisConfig,
    Rule,
    analyze_file,
    analyze_source,
    analyze_tree,
    register_rule,
    registered_rules,
)


def _analyze(code: str, path: str = "<string>", config=None):
    return analyze_source(textwrap.dedent(code), path, config)


class TestComplexity:
    def test_nested_function_branches_not_counted_into_enclosing(self):
        report = _analyze(
            """
            def outer(x):
                def closure(y):
                    if y > 0:
                        for i in range(y):
                            if i % 2:
                                pass
                    return y
                return closure(x)
            """
        )
        by_name = {m.name: m for m in report.functions}
        assert by_name["outer"].complexity == 1
        assert by_name["closure"].complexity == 4
        assert by_name["closure"].nested

    def test_boolop_counts_extra_operands(self):
        report = _analyze(
            """
            def f(a, b, c):
                if a or b or c:
                    return 1
                return 0
            """
        )
        # base + if + (3-operand BoolOp adds 2)
        assert report.functions[0].complexity == 4

    def test_two_operand_boolop_adds_one(self):
        report = _analyze("def f(a, b):\n    return a and b\n")
        assert report.functions[0].complexity == 2

    def test_lambda_body_excluded(self):
        report = _analyze(
            "def f(items):\n    return sorted(items, key=lambda x: x if x else 0)\n"
        )
        assert report.functions[0].complexity == 1


class TestParseErrors:
    def test_syntax_error_becomes_finding(self):
        report = _analyze("def broken(:\n")
        assert [f.rule for f in report.findings] == ["parse-error"]
        assert report.findings[0].severity == "error"

    def test_null_bytes_become_finding(self):
        report = analyze_source("x = 1\x00", "bad.py")
        assert [f.rule for f in report.findings] == ["parse-error"]

    def test_non_utf8_file_becomes_finding(self, tmp_path):
        path = tmp_path / "latin.py"
        path.write_bytes("x = '\xe9'\n".encode("latin-1"))
        report = analyze_file(path)
        assert [f.rule for f in report.findings] == ["parse-error"]

    def test_tree_analysis_survives_broken_files(self, tmp_path):
        (tmp_path / "good.py").write_text("def f():\n    pass\n")
        (tmp_path / "bad.py").write_text("def broken(:\n")
        report = analyze_tree(tmp_path)
        assert len(report.files) == 2
        assert report.findings_by_rule() == {"parse-error": 1}


class TestSuppression:
    def test_same_line_rule_suppression(self):
        report = _analyze(
            "def f(x):\n    return x == None  # quality: ignore[eq-none]\n"
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_bare_ignore_suppresses_all_rules(self):
        report = _analyze("def f(x):\n    return x == None  # quality: ignore\n")
        assert report.findings == []
        assert report.suppressed == 1

    def test_wrong_rule_id_does_not_suppress(self):
        report = _analyze(
            "def f(x):\n    return x == None  # quality: ignore[bare-except]\n"
        )
        # The finding escapes the mismatched suppression, and the
        # suppression itself is reported as stale.
        assert sorted(f.rule for f in report.findings) == [
            "eq-none",
            "stale-ignore",
        ]

    def test_multiple_rule_ids(self):
        report = _analyze(
            "def f(x):\n"
            "    return x == None  # quality: ignore[bare-except, eq-none]\n"
        )
        assert report.findings == []


class TestConfig:
    def test_disable_rule(self):
        config = AnalysisConfig(disabled=frozenset({"eq-none"}))
        report = _analyze("def f(x):\n    return x == None\n", config=config)
        assert report.findings == []

    def test_enabled_only(self):
        config = AnalysisConfig(enabled_only=frozenset({"bare-except"}))
        report = _analyze(
            """
            def f(x=[]):
                try:
                    return x == None
                except:
                    pass
            """,
            config=config,
        )
        assert [f.rule for f in report.findings] == ["bare-except"]

    def test_high_complexity_ceiling(self):
        config = AnalysisConfig(max_complexity=2)
        report = _analyze(
            """
            def branchy(x):
                if x > 0:
                    for i in range(x):
                        if i % 2:
                            pass
                return x
            """,
            config=config,
        )
        assert [f.rule for f in report.findings] == ["high-complexity"]


class TestRegistry:
    def test_builtin_rules_registered(self):
        rules = registered_rules()
        for rule_id in (
            "bare-except",
            "mutable-default",
            "eq-none",
            "high-complexity",
            "determinism",
            "cost-accounting",
            "bsp-race",
        ):
            assert rule_id in rules

    def test_duplicate_registration_rejected(self):
        class Duplicate(Rule):
            id = "eq-none"

        with pytest.raises(ValueError, match="duplicate"):
            register_rule(Duplicate)

    def test_missing_id_rejected(self):
        class Anonymous(Rule):
            pass

        with pytest.raises(ValueError, match="no rule id"):
            register_rule(Anonymous)


class TestProfile:
    """Per-rule timing collection."""

    @staticmethod
    def _seed_tree(tmp_path):
        (tmp_path / "clean.py").write_text(
            '"""A module."""\n\nX = 1\n', encoding="utf-8"
        )
        (tmp_path / "buggy.py").write_text(
            '"""A module."""\n\n\ndef f(x=[]):\n    """Doc."""\n'
            "    try:\n        return x\n    except:\n        pass\n",
            encoding="utf-8",
        )
        (tmp_path / "broken.py").write_text("def (", encoding="utf-8")

    def test_rule_timings_collected(self, tmp_path):
        self._seed_tree(tmp_path)
        timings = {}
        analyze_tree(tmp_path, rule_timings=timings)
        assert "bare-except" in timings
        assert all(seconds >= 0.0 for seconds in timings.values())


#: A driver module that trips every rule walking a whole module:
#: bare-except, mutable-default, eq-none, bsp-race, determinism (whose
#: lambda anchors on its statement), cost-accounting, and the call
#: graph's import table.
_ENGINE_MODULE = '''\
"""Engine."""

import time

from repro.core.pregel import VertexProgram


class Echo(VertexProgram):
    """Program."""

    def compute(self, ctx, messages):
        """Kernel."""
        self.seen = messages


def step(meter, adjacency, seen=[]):
    """Loop without a charge."""
    for v in adjacency:
        seen.append(v)
    stamp = (lambda: time.time())()
    try:
        return stamp == None
    except:
        return None
'''

_CORE_MODULE = '''\
"""Core."""

import random


def pick(items):
    """Unseeded choice."""
    return random.choice(sorted(items))
'''

_OTHER_MODULE = '''\
"""Elsewhere."""

from repro.core import clock


def later(x=None):
    """Calls across modules."""
    return clock.pick([x])
'''


class TestSingleWalk:
    """Each module is walked whole once per run and tokenized only when
    its text can hold a directive."""

    def test_each_module_is_walked_whole_once(self, tmp_path, monkeypatch):
        files = {
            "repro/platforms/fake/engine.py": _ENGINE_MODULE,
            "repro/core/clock.py": _CORE_MODULE,
            "tools/later.py": _OTHER_MODULE,
        }
        for relative, source in files.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        walked = []
        walk = ast.walk

        def counting_walk(node):
            if isinstance(node, ast.Module):
                walked.append(node)
            return walk(node)

        monkeypatch.setattr(ast, "walk", counting_walk)
        report = analyze_tree(tmp_path)
        rules = {f.rule for file in report.files for f in file.findings}
        assert {
            "bare-except", "mutable-default", "eq-none", "bsp-race",
            "determinism", "cost-accounting",
        } <= rules
        assert sorted(Counter(map(id, walked)).values()) == [1, 1, 1]

    @staticmethod
    def _tokenized(monkeypatch, source):
        calls = []
        generate_tokens = tokenize.generate_tokens

        def counting(readline):
            calls.append(readline)
            return generate_tokens(readline)

        monkeypatch.setattr(tokenize, "generate_tokens", counting)
        report = _analyze(source)
        return len(calls), report

    def test_module_without_directive_text_is_not_tokenized(
        self, monkeypatch
    ):
        calls, report = self._tokenized(
            monkeypatch, "def f(x=[]):  # shared on purpose\n    return x\n"
        )
        assert calls == 0
        assert [f.rule for f in report.findings] == ["mutable-default"]

    def test_module_with_a_suppression_is_tokenized(self, monkeypatch):
        calls, report = self._tokenized(
            monkeypatch,
            "def f(x=[]):  # quality: ignore[mutable-default]\n"
            "    return x\n",
        )
        assert calls == 1
        assert report.findings == []
        assert report.suppressed == 1

    def test_suppression_inside_a_string_suppresses_nothing(
        self, monkeypatch
    ):
        calls, report = self._tokenized(
            monkeypatch,
            'def f(x=[], y="# quality: ignore"):\n    return x, y\n',
        )
        assert calls == 1
        assert [f.rule for f in report.findings] == ["mutable-default"]
        assert report.suppressed == 0
