"""Tests for the ``cost-protocol`` typestate rule."""

import textwrap

from repro.analysis import analyze_source

ENGINE_PATH = "src/repro/platforms/fake/engine.py"


def _findings(code: str, rule: str = "cost-protocol"):
    report = analyze_source(textwrap.dedent(code), ENGINE_PATH)
    return [f for f in report.findings if f.rule == rule]


class TestBalancedPaths:
    def test_straight_line_pair_is_clean(self):
        assert _findings(
            """
            def run(meter):
                meter.begin_round("r")
                meter.charge_compute(0, 1.0)
                meter.end_round()
            """
        ) == []

    def test_try_finally_pair_is_clean(self):
        assert _findings(
            """
            def run(self, meter):
                meter.begin_round("r")
                try:
                    self.step()
                finally:
                    meter.end_round()
            """
        ) == []

    def test_branch_missing_end_on_one_path_is_flagged(self):
        findings = _findings(
            """
            def run(meter, flag):
                meter.begin_round("r")
                if flag:
                    meter.end_round()
            """
        )
        assert len(findings) == 1
        assert "round still open" in findings[0].message

    def test_swallowed_exception_leaves_round_open(self):
        # The handler swallows an error raised mid-round: the function
        # then returns with the meter still open — PR-fixture shape
        # "unmatched begin_round on an exception path".
        findings = _findings(
            """
            def run(self, meter):
                meter.begin_round("r")
                try:
                    self.step()
                    meter.end_round()
                except ValueError:
                    pass
            """
        )
        assert len(findings) == 1
        assert "exception" in findings[0].message

    def test_loop_with_pair_per_iteration_is_clean(self):
        assert _findings(
            """
            def run(meter, steps):
                for _ in range(steps):
                    meter.begin_round("r")
                    meter.charge_compute(0, 1.0)
                    meter.end_round()
            """
        ) == []


class TestProtocolViolations:
    def test_double_begin_is_flagged(self):
        findings = _findings(
            """
            def run(meter):
                meter.begin_round("a")
                meter.begin_round("b")
                meter.end_round()
                meter.end_round()
            """
        )
        assert any("already be open" in f.message for f in findings)

    def test_end_without_begin_is_flagged(self):
        findings = _findings(
            "def run(meter):\n    meter.end_round()\n"
        )
        assert len(findings) == 1
        assert "no round open" in findings[0].message

    def test_charge_after_close_is_flagged(self):
        findings = _findings(
            """
            def run(meter):
                meter.begin_round("r")
                meter.end_round()
                meter.charge_message(0, 1, 8.0)
            """
        )
        assert len(findings) == 1
        assert "charge_message" in findings[0].message

    def test_startup_charges_are_exempt(self):
        # charge_startup / allocate_memory / release_memory are legal
        # outside rounds (they do not require an open RoundRecord).
        assert _findings(
            """
            def load(meter):
                meter.charge_startup(0, 3.5)
                meter.allocate_memory(0, 1024.0)
                meter.release_memory(0, 1024.0)
            """
        ) == []


class TestClosedRecordWrites:
    def test_pr4_gpu_mutation_shape_is_flagged(self):
        # The exact bug PR 4 fixed by hand: mutating the RoundRecord
        # returned by end_round instead of passing the override in.
        findings = _findings(
            """
            def superstep(self, meter, compute_set):
                meter.begin_round("kernel")
                record = meter.end_round(active_vertices=len(compute_set))
                record.barrier_seconds = 0.0005
            """
        )
        assert len(findings) == 1
        assert "closed round record" in findings[0].message

    def test_passing_override_to_end_round_is_clean(self):
        assert _findings(
            """
            def superstep(self, meter, compute_set):
                meter.begin_round("kernel")
                meter.end_round(
                    active_vertices=len(compute_set),
                    barrier_seconds=0.0005,
                )
            """
        ) == []

    def test_rebound_name_is_not_a_closed_record(self):
        # The name is reassigned to something else afterwards, so the
        # later write does not touch a closed record.
        assert _findings(
            """
            def run(self, meter):
                meter.begin_round("r")
                record = meter.end_round()
                record = self.fresh_record()
                record.barrier_seconds = 1.0
            """
        ) == []

    def test_mutator_call_on_closed_record_is_flagged(self):
        findings = _findings(
            """
            def run(meter, extra):
                meter.begin_round("r")
                record = meter.end_round()
                record.events.append(extra)
            """
        )
        assert len(findings) == 1


class TestInterprocedural:
    def test_charge_inside_helper_needs_callers_round(self):
        findings = _findings(
            """
            class Engine:
                def _charge(self, meter, ops):
                    meter.charge_compute(0, ops)

                def run(self, meter):
                    meter.begin_round("r")
                    self._charge(meter, 1.0)
                    meter.end_round()
                    self._charge(meter, 2.0)
            """
        )
        assert len(findings) == 1
        assert "'_charge'" in findings[0].message

    def test_opener_helper_summary_applies_at_caller(self):
        # A helper that opens a round leaves the caller at depth 1;
        # a second local begin_round is then a double-begin.
        findings = _findings(
            """
            class Engine:
                def _open(self, meter):
                    meter.begin_round("stage")

                def run(self, meter):
                    self._open(meter)
                    meter.begin_round("again")
                    meter.end_round()
                    meter.end_round()
            """
        )
        assert any("already be open" in f.message for f in findings)

    def test_charge_nine_helpers_deep_is_flagged(self):
        # Each fixpoint pass carries requires_open one helper further
        # up the chain; a fixed pass count would stop short of h1.
        chain = "".join(
            f"def h{i}(meter):\n    h{i + 1}(meter)\n\n" for i in range(1, 9)
        )
        findings = _findings(
            chain
            + "def h9(meter):\n    meter.charge_compute(0, 1.0)\n\n"
            + "def run(meter):\n"
            + "    meter.begin_round('r')\n"
            + "    meter.end_round()\n"
            + "    h1(meter)\n"
        )
        assert len(findings) == 1
        assert "calls 'h1', which charges the meter" in findings[0].message

    def test_suppression_on_def_line_silences_opener_helper(self):
        report = analyze_source(
            textwrap.dedent(
                """
                class Engine:
                    def _open(self, meter):  # quality: ignore[cost-protocol]
                        meter.begin_round("stage")
                """
            ),
            ENGINE_PATH,
        )
        assert [f for f in report.findings if f.rule == "cost-protocol"] == []
        assert report.suppressed == 1
