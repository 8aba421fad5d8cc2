"""Generic bug-pattern and maintainability rules.

These are the language-level rules the original Section 3.5 analyzer
shipped with (bare excepts, mutable default arguments, ``== None``),
plus a configurable complexity ceiling. Domain-aware rules live in
:mod:`repro.analysis.rules_determinism` and
:mod:`repro.analysis.rules_bsp`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import (
    ModuleContext,
    Rule,
    function_anchor,
    register_rule,
)
from repro.analysis.model import Finding, WARNING

__all__ = [
    "BareExceptRule",
    "MutableDefaultRule",
    "EqNoneRule",
    "HighComplexityRule",
]


@register_rule
class BareExceptRule(Rule):
    """Flag ``except:`` clauses that swallow every exception."""

    id = "bare-except"
    severity = WARNING
    category = "bug"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        for node in module.nodes:
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    "bare 'except:' swallows all errors", node.lineno
                )


@register_rule
class MutableDefaultRule(Rule):
    """Flag mutable default arguments (shared across calls)."""

    id = "mutable-default"
    severity = WARNING
    category = "bug"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        for node in module.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default
                for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                    # Anchor at the def line, not the default's own
                    # line: in a multi-line signature the default can
                    # sit lines below the def, where a suppression
                    # comment (and a reader) would never look.
                    yield self.finding(
                        f"function {node.name!r} has a mutable default",
                        function_anchor(node),
                    )


@register_rule
class EqNoneRule(Rule):
    """Flag ``== None`` / ``!= None`` comparisons."""

    id = "eq-none"
    severity = WARNING
    category = "bug"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        for node in module.nodes:
            if not isinstance(node, ast.Compare):
                continue
            for op, comparator in zip(node.ops, node.comparators):
                is_none = (
                    isinstance(comparator, ast.Constant)
                    and comparator.value is None
                )
                if is_none and isinstance(op, (ast.Eq, ast.NotEq)):
                    yield self.finding(
                        "compare to None with 'is', not '=='", node.lineno
                    )


@register_rule
class HighComplexityRule(Rule):
    """Flag functions above the configured complexity ceiling."""

    id = "high-complexity"
    severity = WARNING
    category = "maintainability"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        ceiling = module.config.max_complexity
        for metrics in module.functions:
            if metrics.complexity > ceiling:
                yield self.finding(
                    f"function {metrics.name!r} has cyclomatic complexity "
                    f"{metrics.complexity} (ceiling {ceiling})",
                    metrics.line,
                )
