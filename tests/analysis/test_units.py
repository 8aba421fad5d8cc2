"""Behavioural tests for the ``cost-units`` dimensional analysis."""

from __future__ import annotations

import textwrap

from repro.analysis import AnalysisConfig, analyze_source
from repro.analysis.dataflow.units import (
    CONFLICT,
    DIMENSIONLESS,
    UNKNOWN,
    base_unit,
    parse_unit,
    unit_div,
    unit_join,
    unit_mul,
    unit_of_name,
)

IN_SCOPE = "src/repro/hardware/fake_model.py"
OUT_OF_SCOPE = "src/repro/graph/fake_io.py"


def _findings(code: str, path: str = IN_SCOPE, config=None):
    report = analyze_source(textwrap.dedent(code), path, config)
    return [f for f in report.findings if f.rule.startswith("cost-units")]


class TestLattice:
    def test_rates_compose(self):
        seconds = parse_unit("seconds")
        bandwidth = parse_unit("bytes/second")
        assert unit_mul(bandwidth, seconds) == parse_unit("bytes")
        assert unit_div(parse_unit("bytes"), bandwidth) == seconds

    def test_join_widens_disagreement_to_conflict(self):
        assert unit_join(parse_unit("bytes"), parse_unit("bytes")) == parse_unit("bytes")
        assert unit_join(parse_unit("bytes"), parse_unit("seconds")) == CONFLICT
        assert unit_join(parse_unit("bytes"), UNKNOWN) == UNKNOWN

    def test_dimensionless_is_multiplicative_identity(self):
        ops = base_unit("ops")
        assert unit_mul(ops, DIMENSIONLESS) == ops
        assert unit_div(ops, DIMENSIONLESS) == ops

    def test_parse_unit_aliases_and_rejects_unknown(self):
        assert parse_unit("ops/second") == parse_unit("operations / seconds")
        assert parse_unit("1") == DIMENSIONLESS
        assert parse_unit("furlongs") is None

    def test_registry_covers_the_cost_vocabulary(self):
        assert unit_of_name("ru_maxrss") == parse_unit("kibibytes")
        assert unit_of_name("network_bandwidth") == parse_unit("bytes/second")
        assert unit_of_name("message_latency_seconds") == parse_unit(
            "seconds/message"
        )
        assert unit_of_name("bytes_per_worker") == parse_unit("bytes")
        assert unit_of_name("num_workers") == DIMENSIONLESS
        assert unit_of_name("unrelated_thing") is None


class TestFindings:
    def test_mixed_arithmetic_flagged(self):
        findings = _findings(
            """
            def combine(compute_seconds, remote_bytes):
                return compute_seconds + remote_bytes
            """
        )
        assert [f.rule for f in findings] == ["cost-units.mixed-arithmetic"]

    def test_rate_division_is_clean(self):
        findings = _findings(
            """
            def transfer(remote_bytes, network_bandwidth, num_workers):
                return remote_bytes / (num_workers * network_bandwidth)
            """
        )
        assert findings == []

    def test_rate_inversion_flagged(self):
        findings = _findings(
            """
            def transfer(remote_bytes, network_bandwidth):
                return remote_bytes * network_bandwidth
            """
        )
        assert [f.rule for f in findings] == ["cost-units.rate-inversion"]

    def test_unconverted_kib_flagged_with_hint(self):
        findings = _findings(
            """
            def peak(usage):
                peak_bytes = float(usage.ru_maxrss)
                return peak_bytes
            """
        )
        assert [f.rule for f in findings] == ["cost-units.unconverted"]
        assert "multiply by 1024" in findings[0].message

    def test_conversion_literal_is_clean(self):
        findings = _findings(
            """
            def peak(usage):
                peak_bytes = float(usage.ru_maxrss) * 1024
                return peak_bytes
            """
        )
        assert findings == []

    def test_call_argument_mismatch_flagged(self):
        findings = _findings(
            """
            def run(meter, compute_seconds):
                meter.charge_compute(0, compute_seconds)
            """
        )
        assert [f.rule for f in findings] == ["cost-units.call-argument"]

    def test_keyword_swap_flagged(self):
        findings = _findings(
            """
            def penalty(model, cpu, ops_per_worker):
                return model.straggler_penalty_seconds(
                    ops_per_worker,
                    ops_per_worker,
                    worker_ops_per_second=cpu.random_access_seconds,
                    random_access_seconds=cpu.worker_ops_per_second,
                )
            """
        )
        assert [f.rule for f in findings] == ["cost-units.keyword-swap"]

    def test_pragma_overrides_convention(self):
        findings = _findings(
            """
            def stamp(record):
                elapsed = record.compute_seconds  # units: milliseconds
                wall_seconds = elapsed
                return wall_seconds
            """
        )
        assert [f.rule for f in findings] == ["cost-units.unconverted"]
        # The pragma on the assignment wins over the `_seconds`
        # convention, so the seconds-valued RHS needs converting.
        assert "divide by 0.001" in findings[0].message
        assert findings[0].line == 3

    def test_interprocedural_summary_returns_unit(self):
        findings = _findings(
            """
            class Nic:
                def service_seconds(self, remote_bytes, bandwidth):
                    return remote_bytes / bandwidth

                def round_cost(self, remote_bytes, bandwidth):
                    total_bytes = self.service_seconds(
                        remote_bytes, bandwidth
                    )
                    return total_bytes
            """
        )
        # The helper provably returns seconds; binding it to a
        # ``*_bytes`` name is mixed units.
        assert [f.rule for f in findings] == ["cost-units.mixed-arithmetic"]

    def test_summary_crosses_a_seven_helper_chain(self):
        # Helpers listed caller-first: the unit climbs one helper per
        # fixpoint pass, so a pass cap shorter than the chain loses it.
        helpers = "".join(
            f"""
            def h{depth}(remote_bytes, bandwidth):
                return h{depth + 1}(remote_bytes, bandwidth)
            """
            for depth in range(1, 7)
        )
        findings = _findings(
            """
            def round_cost(remote_bytes, bandwidth):
                total_bytes = h1(remote_bytes, bandwidth)
                return total_bytes
            """
            + helpers
            + """
            def h7(remote_bytes, bandwidth):
                return remote_bytes / bandwidth
            """
        )
        assert [f.rule for f in findings] == ["cost-units.mixed-arithmetic"]
        assert findings[0].line == 3

    def test_recursive_helpers_settle_below_the_backstop(self):
        # Each call starts out with the unit its name declares, so
        # without widening the product gains a bytes exponent every
        # pass and the quotient flips between two units for ever;
        # the solver's backstop would raise instead of reporting.
        findings = _findings(
            """
            def grown_bytes(total_bytes):
                return total_bytes * grown_bytes(total_bytes)

            def ratio_bytes(total_bytes):
                return total_bytes / ratio_bytes(total_bytes)
            """
        )
        # The widened summaries report what the names declare.
        assert [(f.rule, f.line) for f in findings] == [
            ("cost-units.rate-inversion", 3)
        ]

    def test_out_of_scope_module_is_ignored(self):
        findings = _findings(
            """
            def combine(compute_seconds, remote_bytes):
                return compute_seconds + remote_bytes
            """,
            path=OUT_OF_SCOPE,
        )
        assert findings == []

    def test_family_wildcard_suppression(self):
        findings = _findings(
            """
            def combine(compute_seconds, remote_bytes):
                return compute_seconds + remote_bytes  # quality: ignore[cost-units.*]
            """
        )
        assert findings == []

    def test_family_wildcard_disables_rules(self):
        config = AnalysisConfig(
            disabled=frozenset({"cost-units.*", "stale-ignore"})
        )
        findings = _findings(
            """
            def combine(compute_seconds, remote_bytes):
                return compute_seconds + remote_bytes
            """,
            config=config,
        )
        assert findings == []

    def test_counts_scale_rates_without_noise(self):
        findings = _findings(
            """
            def aggregate(num_workers, network_bandwidth, remote_bytes):
                fleet_bandwidth = num_workers * network_bandwidth
                return remote_bytes / fleet_bandwidth
            """
        )
        assert findings == []

    def test_branches_join_without_false_positives(self):
        findings = _findings(
            """
            def pick(fast, total_bytes, network_bandwidth):
                if fast:
                    wait_seconds = 0.0
                else:
                    wait_seconds = total_bytes / network_bandwidth
                return wait_seconds
            """
        )
        assert findings == []
