"""Domain-aware rules: determinism and cost accounting.

The simulation contract of this repository (see ``core/cost.py``) is
that *all* time comes from the :class:`~repro.core.cost.CostMeter` and
*all* randomness from an injected, seeded RNG. Wall-clock reads or
unseeded randomness inside ``repro/platforms`` or ``repro/core`` make
benchmark results irreproducible — the silent-rot failure mode the
"SoK: The Faults in our Graph Benchmarks" study documents. Likewise,
an engine loop over adjacency, partitions, or message lists that never
charges the meter performs *free* simulated work, which corrupts every
runtime figure downstream.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.engine import (
    ModuleContext,
    Rule,
    register_rule,
    statement_anchors,
)
from repro.analysis.model import ERROR, Finding

__all__ = ["DeterminismRule", "CostAccountingRule"]

#: Path fragments the determinism contract covers.
DETERMINISM_SCOPE = ("repro/platforms", "repro/core")

#: Wall-clock calls (fully qualified, aliases resolved).
_BANNED_CLOCKS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: numpy.random constructors that are deterministic *when seeded*.
_SEEDED_CONSTRUCTORS = {"default_rng", "Generator", "SeedSequence", "RandomState"}


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the fully qualified names they import."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def _dotted_name(func: ast.expr, aliases: dict[str, str]) -> str | None:
    """Fully qualified dotted name of a call target, or ``None``."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


@register_rule
class DeterminismRule(Rule):
    """Flag wall-clock reads and unseeded randomness in the simulation."""

    id = "determinism"
    severity = ERROR
    category = "determinism"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        if not module.in_scope(DETERMINISM_SCOPE):
            return
        aliases = _import_aliases(module.tree)
        # Calls inside lambda/comprehension bodies anchor on the
        # enclosing statement, where the suppression comment can live.
        anchors = statement_anchors(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func, aliases)
            if name is None:
                continue
            finding = self._classify(
                name, node, anchors.get(id(node), node.lineno)
            )
            if finding is not None:
                yield finding

    def _classify(
        self, name: str, node: ast.Call, line: int
    ) -> Finding | None:
        if name in _BANNED_CLOCKS:
            return self.finding(
                f"wall-clock call {name}(); simulated time must come "
                "from the CostMeter",
                line,
            )
        has_args = bool(node.args or node.keywords)
        if name.startswith("random."):
            tail = name[len("random."):]
            if tail == "Random" and has_args:
                return None  # seeded random.Random(seed) instance
            return self.finding(
                f"unseeded randomness {name}(); inject a seeded RNG "
                "instead of module-level random state",
                line,
            )
        if name.startswith("numpy.random."):
            tail = name[len("numpy.random."):]
            if tail in _SEEDED_CONSTRUCTORS and has_args:
                return None  # e.g. numpy.random.default_rng(seed)
            return self.finding(
                f"unseeded randomness {name}(); pass an explicit seed "
                "or inject a seeded Generator",
                line,
            )
        return None


#: Engine/driver modules the cost-accounting contract covers.
COST_SCOPE = "repro/platforms"
COST_BASENAMES = {
    "engine.py",
    "driver.py",
    "jobs.py",
    "rdd.py",
    "graphx.py",
    "store.py",
    "traversal.py",
    # The vectorized kernel paths charge through the CostMeter vector
    # entry points (charge_worker_compute, charge_worker_messages);
    # their loops are bound by the same contract as the scalar
    # engines'.
    "bulk.py",
}

#: Identifier fragments marking a loop as simulated work.
_COSTED_TOKENS = (
    "adjacency",
    "neighbors",
    "partition",
    "messages",
    "inbox",
    "outbox",
    "edges",
    "workset",
    "frontier",
)

#: Method names that account for work on the CostMeter (directly or,
#: for the message-sending helpers, transitively).
_ACCOUNTING_ATTRS = {
    "allocate_memory",
    "release_memory",
    "begin_round",
    "end_round",
    "send",
    "send_to_neighbors",
    "_send",
}


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested functions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _costed_token(expr: ast.AST) -> str | None:
    """The first costed-collection token an expression mentions."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            identifier = node.id.lower()
        elif isinstance(node, ast.Attribute):
            identifier = node.attr.lower()
        else:
            continue
        for token in _COSTED_TOKENS:
            if token in identifier:
                return token
    return None


def _has_accounting(func: ast.AST) -> bool:
    # The "charge_" prefix covers the scalar APIs (charge_compute,
    # charge_message, ...) and the vector ones (charge_worker_compute,
    # charge_worker_messages) alike; see tests/analysis for the pin.
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr.startswith("charge_") or attr in _ACCOUNTING_ATTRS:
                return True
    return False


@register_rule
class CostAccountingRule(Rule):
    """Flag engine/driver loops over simulated data that never charge."""

    id = "cost-accounting"
    severity = ERROR
    category = "cost-accounting"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        if COST_SCOPE not in module.posix_path:
            return
        if Path(module.path).name not in COST_BASENAMES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "__init__":
                # Partition/topology construction happens before the
                # metered run starts; load-time costs are charged by
                # the drivers' explicit ETL accounting.
                continue
            finding = self._check_function(node)
            if finding is not None:
                yield finding

    def _check_function(self, func: ast.AST) -> Finding | None:
        first_loop: tuple[int, str] | None = None
        for node in _own_nodes(func):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                token = _costed_token(node.iter)
            elif isinstance(node, ast.While):
                token = _costed_token(node.test)
            else:
                continue
            if token is not None and (
                first_loop is None or node.lineno < first_loop[0]
            ):
                first_loop = (node.lineno, token)
        if first_loop is None or _has_accounting(func):
            return None
        line, token = first_loop
        return self.finding(
            f"function {func.name!r} loops over {token} without any "
            "CostMeter charge; uncharged work corrupts simulated runtimes",
            line,
        )
