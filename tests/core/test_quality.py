"""Unit tests for the code-quality analyzer (Section 3.5)."""

import textwrap

from repro.analysis import (
    QualityReport,
    analyze_file,
    analyze_source,
    analyze_tree,
    detect_regressions,
)


def _analyze(code: str):
    return analyze_source(textwrap.dedent(code))


class TestMetrics:
    def test_complexity_counts_branches(self):
        report = _analyze(
            """
            def branchy(x):
                if x > 0:
                    for i in range(x):
                        if i % 2:
                            pass
                return x
            """
        )
        (metrics,) = report.functions
        assert metrics.complexity == 4  # base + if + for + if

    def test_straight_line_complexity_one(self):
        report = _analyze("def f():\n    return 1\n")
        assert report.functions[0].complexity == 1

    def test_docstring_detection(self):
        report = _analyze(
            '''
            def documented():
                """Has a docstring."""

            def undocumented():
                pass
            '''
        )
        by_name = {m.name: m for m in report.functions}
        assert by_name["documented"].has_docstring
        assert not by_name["undocumented"].has_docstring
        assert report.documented_share == 0.5

    def test_private_functions_excluded_from_doc_share(self):
        report = _analyze("def _helper():\n    pass\n")
        assert report.documented_share == 1.0

    def test_lines_of_code_skips_comments_and_blanks(self):
        report = _analyze(
            """
            # a comment

            x = 1
            y = 2
            """
        )
        assert report.lines_of_code == 2

    def test_function_length(self):
        report = _analyze("def f():\n    a = 1\n    b = 2\n    return a + b\n")
        assert report.functions[0].length == 4


class TestFindings:
    def test_bare_except(self):
        report = _analyze(
            """
            def risky():
                try:
                    pass
                except:
                    pass
            """
        )
        assert [f.rule for f in report.findings] == ["bare-except"]

    def test_typed_except_is_fine(self):
        report = _analyze(
            """
            def careful():
                try:
                    pass
                except ValueError:
                    pass
            """
        )
        assert report.findings == []

    def test_mutable_default(self):
        report = _analyze("def f(items=[]):\n    return items\n")
        assert [f.rule for f in report.findings] == ["mutable-default"]

    def test_eq_none(self):
        report = _analyze("def f(x):\n    return x == None\n")
        assert [f.rule for f in report.findings] == ["eq-none"]

    def test_is_none_is_fine(self):
        report = _analyze("def f(x):\n    return x is None\n")
        assert report.findings == []


class TestTreeAnalysis:
    def test_analyze_tree(self, tmp_path):
        (tmp_path / "a.py").write_text("def f():\n    pass\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "b.py").write_text("def g(x=[]):\n    return x\n")
        report = analyze_tree(tmp_path)
        assert len(report.files) == 2
        assert report.total_functions == 2
        assert report.total_findings == 1
        assert "potential-bugs=1" in report.summary()

    def test_analyze_file(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("x = 1\n")
        report = analyze_file(path)
        assert report.path == str(path)

    def test_own_codebase_is_clean(self, src_quality_report):
        # The paper's point: reference implementations ship with
        # quality reports. Ours must have no potential-bug findings.
        report = src_quality_report
        findings = [
            (f.path, finding.rule)
            for f in report.files
            for finding in f.findings
        ]
        assert findings == []
        assert report.documented_share > 0.95


class TestRegressions:
    def test_detects_new_bugs(self):
        before = QualityReport(files=[analyze_source("def f():\n    pass\n")])
        after = QualityReport(
            files=[analyze_source("def f(x=[]):\n    return x\n")]
        )
        signals = detect_regressions(before, after)
        assert any("potential bugs" in s for s in signals)

    def test_clean_change_no_signals(self):
        report = QualityReport(files=[analyze_source("def f():\n    pass\n")])
        assert detect_regressions(report, report) == []

    def test_detects_doc_coverage_drop(self):
        before = QualityReport(
            files=[analyze_source('def f():\n    """Doc."""\n')]
        )
        after = QualityReport(files=[analyze_source("def f():\n    pass\n")])
        signals = detect_regressions(before, after)
        assert any("documentation" in s for s in signals)
