"""Tests for the ``nondeterminism-flow`` taint rule."""

import ast
import textwrap
from pathlib import Path

from repro.analysis import analyze_source
from repro.analysis.dataflow.taint import _TaintRun
from repro.analysis.engine import AnalysisConfig, ModuleContext, ProjectContext

ENGINE_PATH = "src/repro/platforms/fake/engine.py"
OUT_OF_SCOPE_PATH = "src/repro/perf/fake.py"
REPO = Path(__file__).resolve().parents[2]

#: Callers sort before their callees, and each ``a_*`` caller reads
#: its callee's summary at one lookup site only: the sink check of a
#: bare call statement (``b_emit``) or the taint of a call whose
#: partition-key name makes it a sink (``b_shard_of``). A summary read
#: that the memo fails to record leaves a stale summary here.
CALLER_FIRST_CHAIN = """
def a_flood(ctx):
    for vertex in {1, 2}:
        b_emit(ctx, vertex)

def a_route(ctx, items):
    ctx.send(0, b_shard_of(items))

def b_emit(ctx, payload):
    c_send(ctx, payload)

def b_shard_of(items):
    return c_pick(items)

def c_pick(items):
    for item in set(items):
        return item

def c_send(ctx, payload):
    ctx.send(0, payload)
"""


def _findings(code: str, path: str = ENGINE_PATH):
    report = analyze_source(textwrap.dedent(code), path)
    return [f for f in report.findings if f.rule == "nondeterminism-flow"]


class TestSources:
    def test_set_iteration_to_message_is_flagged(self):
        findings = _findings(
            """
            def flood(ctx):
                frontier = {1, 2, 3}
                for vertex in frontier:
                    ctx.send(vertex, 1)
            """
        )
        assert len(findings) == 1
        assert "iteration order" in findings[0].message
        assert "message emission" in findings[0].message

    def test_dict_iteration_to_message_is_flagged(self):
        findings = _findings(
            """
            def flood(ctx, pairs):
                state = dict(pairs)
                for vertex in state:
                    ctx.send(vertex, 1)
            """
        )
        assert len(findings) == 1

    def test_listdir_to_partition_key_is_flagged(self):
        findings = _findings(
            """
            import os

            def assign(partitioner):
                for name in os.listdir("/data"):
                    partitioner.partition_for(name)
            """
        )
        assert len(findings) == 1
        assert "filesystem order" in findings[0].message

    def test_time_to_charge_is_flagged(self):
        findings = _findings(
            """
            import time

            def run(meter):
                meter.begin_round("r")
                meter.charge_compute(0, time.perf_counter())
                meter.end_round()
            """
        )
        assert any("wall-clock" in f.message for f in findings)

    def test_id_to_result_store_is_flagged(self):
        findings = _findings(
            """
            def finish(vertex, results):
                results[vertex] = id(vertex)
            """
        )
        assert len(findings) == 1
        assert "object address" in findings[0].message

    def test_list_iteration_is_clean(self):
        assert _findings(
            """
            def flood(ctx):
                frontier = [1, 2, 3]
                for vertex in frontier:
                    ctx.send(vertex, 1)
            """
        ) == []

    def test_instance_attribute_iteration_is_not_inferred(self):
        # Locals-only type inference: self.adjacency may well be a
        # dict, but the analysis deliberately does not guess.
        assert _findings(
            """
            class Engine:
                def flood(self, ctx):
                    for vertex in self.adjacency:
                        ctx.send(vertex, 1)
            """
        ) == []


class TestSanitizers:
    def test_sorted_kills_iteration_taint(self):
        assert _findings(
            """
            def flood(ctx):
                frontier = {1, 2, 3}
                for vertex in sorted(frontier):
                    ctx.send(vertex, 1)
            """
        ) == []

    def test_len_of_set_is_order_independent(self):
        assert _findings(
            """
            def measure(meter):
                frontier = {1, 2, 3}
                meter.begin_round("r")
                meter.charge_compute(0, len(frontier))
                meter.end_round()
            """
        ) == []

    def test_reassignment_kills_taint(self):
        assert _findings(
            """
            def flood(ctx):
                frontier = {1, 2}
                for vertex in frontier:
                    payload = vertex
                payload = 0
                ctx.send(0, payload)
            """
        ) == []


class TestInterprocedural:
    def test_taint_through_helper_return_and_sink(self):
        # Source in one function, sink in another, flow through a
        # third: the report lands at the caller's call site.
        findings = _findings(
            """
            class Engine:
                def collect(self):
                    pending = {1, 2, 3}
                    return pending

                def emit(self, ctx, payload):
                    ctx.send(0, payload)

                def run(self, ctx):
                    for v in self.collect():
                        self.emit(ctx, v)
            """
        )
        assert len(findings) == 1
        assert "'collect'" in findings[0].message
        assert "'emit'" in findings[0].message

    def test_helper_forwarding_params_is_not_reported_itself(self):
        # The helper half of a flow is the caller's defect, not the
        # helper's: a clean project must not flag `emit` alone.
        assert _findings(
            """
            class Engine:
                def emit(self, ctx, payload):
                    ctx.send(0, payload)
            """
        ) == []

    def test_sorted_return_through_helper_is_clean(self):
        assert _findings(
            """
            class Engine:
                def collect(self):
                    pending = {1, 2, 3}
                    return sorted(pending)

                def run(self, ctx):
                    for v in self.collect():
                        ctx.send(0, v)
            """
        ) == []


class TestFixpoint:
    def test_set_element_returned_through_five_helpers_is_flagged(self):
        # Each fixpoint pass carries returns_taint one helper further
        # up the chain; a fixed pass count would stop short of h1.
        findings = _findings(
            """
            def h5(items):
                for item in set(items):
                    return item

            def h4(items):
                return h5(items)

            def h3(items):
                return h4(items)

            def h2(items):
                return h3(items)

            def h1(items):
                return h2(items)

            def flood(ctx, items):
                ctx.send(h1(items))
            """
        )
        assert len(findings) == 1
        assert "via 'h2' via 'h1')" in findings[0].message

    def test_recursive_helper_is_named_once(self):
        findings = _findings(
            """
            def walk(items, depth):
                if depth:
                    return walk(items, depth - 1)
                for item in set(items):
                    return item

            def flood(ctx, items):
                ctx.send(walk(items, 3))
            """
        )
        assert len(findings) == 1
        assert "(set/dict iteration order via 'walk')" in findings[0].message

    def test_memoized_summaries_equal_fresh_ones(self):
        """Re-summarizing any function against the final table, with no
        memo consulted, reproduces its stored summary and flows."""
        fixtures = REPO / "tests" / "analysis" / "fixtures"
        paths = sorted((REPO / "src" / "repro" / "analysis").rglob("*.py"))
        paths += sorted(
            path
            for path in fixtures.glob("**/*.py")
            if path.name != "regen.py" and "audit" not in path.parts
        )
        sources = [
            (path.relative_to(REPO).as_posix(), path.read_text())
            for path in paths
        ]
        sources.append((ENGINE_PATH, CALLER_FIRST_CHAIN))
        config = AnalysisConfig()
        modules = [
            ModuleContext(
                path=path,
                tree=ast.parse(source),
                lines=source.splitlines(),
                config=config,
            )
            for path, source in sources
        ]
        run = _TaintRun(ProjectContext(modules=modules, config=config))
        for caller in ("a_flood", "a_route"):
            assert run.memos[f"repro.platforms.fake.engine.{caller}"].intrinsic
        assert len(run.summaries) == len(run.graph.functions) > 200
        for qualname, info in run.graph.functions.items():
            fresh = run.summarize(info, run.summaries)
            assert fresh.summary == run.summaries[qualname], qualname
            assert fresh.intrinsic == run.memos[qualname].intrinsic, qualname


class TestScope:
    def test_out_of_scope_module_is_not_checked(self):
        assert _findings(
            """
            def flood(ctx):
                frontier = {1, 2, 3}
                for vertex in frontier:
                    ctx.send(vertex, 1)
            """,
            path=OUT_OF_SCOPE_PATH,
        ) == []
