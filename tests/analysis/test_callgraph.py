"""Unit tests for the project call-graph builder."""

import ast
import textwrap

from repro.analysis.engine import AnalysisConfig, ModuleContext, ProjectContext
from repro.analysis.dataflow import build_call_graph, project_call_graph
from repro.analysis.dataflow.callgraph import module_name


def _module(code: str, path: str) -> ModuleContext:
    source = textwrap.dedent(code)
    return ModuleContext(
        path=path,
        tree=ast.parse(source),
        lines=source.splitlines(),
        config=AnalysisConfig(),
    )


def _call_in(graph, caller_qualname: str, func_fragment: str):
    info = graph.functions[caller_qualname]
    for call, callee in graph.calls_of(info):
        if func_fragment in ast.dump(call.func):
            return callee
    raise AssertionError(f"no call matching {func_fragment!r}")


class TestModuleName:
    def test_anchored_at_src(self):
        assert module_name("src/repro/core/cost.py") == "repro.core.cost"

    def test_init_maps_to_package(self):
        assert module_name("src/repro/analysis/__init__.py") == "repro.analysis"

    def test_bare_file_uses_stem(self):
        assert module_name("scratch.py") == "scratch"


class TestDirectCalls:
    def test_module_level_call_resolves(self):
        graph = build_call_graph(
            [
                _module(
                    """
                    def helper():
                        return 1

                    def caller():
                        return helper()
                    """,
                    "src/repro/a.py",
                )
            ]
        )
        callee = _call_in(graph, "repro.a.caller", "helper")
        assert callee is not None and callee.qualname == "repro.a.helper"

    def test_nested_function_resolves_within_parent(self):
        graph = build_call_graph(
            [
                _module(
                    """
                    def outer():
                        def inner():
                            return 1
                        return inner()
                    """,
                    "src/repro/a.py",
                )
            ]
        )
        callee = _call_in(graph, "repro.a.outer", "inner")
        assert callee is not None and callee.qualname == "repro.a.outer.inner"

    def test_local_alias_resolves_one_level(self):
        graph = build_call_graph(
            [
                _module(
                    """
                    def helper():
                        return 1

                    def caller():
                        g = helper
                        return g()
                    """,
                    "src/repro/a.py",
                )
            ]
        )
        callee = _call_in(graph, "repro.a.caller", "'g'")
        assert callee is not None and callee.qualname == "repro.a.helper"

    def test_unknown_callee_resolves_to_none(self):
        graph = build_call_graph(
            [
                _module(
                    "def caller(obj):\n    return obj.method()\n",
                    "src/repro/a.py",
                )
            ]
        )
        assert _call_in(graph, "repro.a.caller", "method") is None


class TestLocalAliases:
    """The per-function alias table resolves ``g = helper`` bindings only."""

    @staticmethod
    def _graph(caller_body: str):
        source = (
            "def helper():\n    return 1\n\n"
            + textwrap.dedent(caller_body)
        )
        return build_call_graph([_module(source, "src/repro/a.py")])

    def test_name_bound_twice_stays_unresolved(self):
        graph = self._graph(
            """
            def caller(flag):
                if flag:
                    g = helper
                else:
                    g = helper
                return g()
            """
        )
        assert _call_in(graph, "repro.a.caller", "'g'") is None

    def test_tuple_target_stays_unresolved(self):
        graph = self._graph(
            """
            def caller():
                g, h = helper, helper
                return g()
            """
        )
        assert _call_in(graph, "repro.a.caller", "'g'") is None

    def test_binding_to_non_name_value_stays_unresolved(self):
        graph = self._graph(
            """
            def caller(wrap):
                g = wrap(helper)
                return g()
            """
        )
        assert _call_in(graph, "repro.a.caller", "'g'") is None

    def test_chained_assignment_resolves_both_names(self):
        graph = self._graph(
            """
            def caller():
                g = h = helper
                return g() + h()
            """
        )
        for name in ("'g'", "'h'"):
            callee = _call_in(graph, "repro.a.caller", name)
            assert callee is not None and callee.qualname == "repro.a.helper"

    def test_nested_binding_does_not_leak_into_enclosing_function(self):
        graph = self._graph(
            """
            def caller():
                def inner():
                    g = helper
                    return g()
                return g()
            """
        )
        assert _call_in(graph, "repro.a.caller", "'g'") is None
        callee = _call_in(graph, "repro.a.caller.inner", "'g'")
        assert callee is not None and callee.qualname == "repro.a.helper"


class TestMethods:
    def test_self_method_resolves(self):
        graph = build_call_graph(
            [
                _module(
                    """
                    class Engine:
                        def step(self):
                            return 1

                        def run(self):
                            return self.step()
                    """,
                    "src/repro/a.py",
                )
            ]
        )
        callee = _call_in(graph, "repro.a.Engine.run", "step")
        assert callee is not None and callee.qualname == "repro.a.Engine.step"

    def test_inherited_method_resolves_through_base(self):
        graph = build_call_graph(
            [
                _module(
                    """
                    class Base:
                        def shared(self):
                            return 1

                    class Child(Base):
                        def run(self):
                            return self.shared()
                    """,
                    "src/repro/a.py",
                )
            ]
        )
        callee = _call_in(graph, "repro.a.Child.run", "shared")
        assert callee is not None and callee.qualname == "repro.a.Base.shared"


class TestImports:
    def test_from_import_resolves_across_modules(self):
        provider = _module(
            "def exported():\n    return 1\n", "src/repro/util.py"
        )
        consumer = _module(
            """
            from repro.util import exported

            def caller():
                return exported()
            """,
            "src/repro/app.py",
        )
        graph = build_call_graph([provider, consumer])
        callee = _call_in(graph, "repro.app.caller", "exported")
        assert callee is not None and callee.qualname == "repro.util.exported"

    def test_import_alias_chain_resolves(self):
        provider = _module(
            "def exported():\n    return 1\n", "src/repro/util.py"
        )
        consumer = _module(
            """
            import repro.util as u

            def caller():
                return u.exported()
            """,
            "src/repro/app.py",
        )
        graph = build_call_graph([provider, consumer])
        callee = _call_in(graph, "repro.app.caller", "exported")
        assert callee is not None and callee.qualname == "repro.util.exported"

    def test_relative_import_resolves(self):
        provider = _module(
            "def exported():\n    return 1\n", "src/repro/pkg/util.py"
        )
        consumer = _module(
            """
            from .util import exported

            def caller():
                return exported()
            """,
            "src/repro/pkg/app.py",
        )
        graph = build_call_graph([provider, consumer])
        callee = _call_in(graph, "repro.pkg.app.caller", "exported")
        assert callee is not None
        assert callee.qualname == "repro.pkg.util.exported"


class TestProjectCache:
    def test_graph_is_cached_on_the_project_context(self):
        module = _module("def f():\n    pass\n", "src/repro/a.py")
        project = ProjectContext(modules=[module], config=AnalysisConfig())
        first = project_call_graph(project)
        second = project_call_graph(project)
        assert first is second
