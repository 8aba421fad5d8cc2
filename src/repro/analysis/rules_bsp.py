"""The BSP race detector.

Under the Pregel model the engine simulates, ``compute`` runs once per
vertex per superstep, conceptually in parallel across workers; the GAS
model's ``gather``/``apply``/``scatter`` kernels run per edge or per
vertex the same way. The only sanctioned communication channels are
the context object (``ctx.value``, ``ctx.send``, aggregators) and the
delivered message list. Anything else a kernel touches is shared
between concurrently executing vertices, so a *write* to it — or a
read of another vertex's state that did not arrive as a message — is a
genuine data race on a real BSP platform, even though this simulator's
sequential execution happens to make it look deterministic.

The detector statically analyzes every class deriving from a
``*Program`` base and flags, inside the kernel methods:

* attribute or subscript writes rooted at ``self`` (the program object
  is one shared instance across all vertices and workers);
* writes or known mutator-method calls on closure/global names (state
  captured from an enclosing scope is shared the same way);
* reads of private engine internals through the context object
  (``ctx._engine``-style access bypasses message delivery).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ModuleContext, Rule, register_rule
from repro.analysis.model import ERROR, Finding

__all__ = ["BSPRaceRule", "KERNEL_METHODS"]

#: Kernel methods analyzed per program model (Pregel / GAS / dataflow).
KERNEL_METHODS = {"compute", "gather", "apply", "scatter", "gather_sum"}

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append",
    "add",
    "extend",
    "update",
    "insert",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "sort",
    "reverse",
}


def _base_names(class_def: ast.ClassDef) -> list[str]:
    names = []
    for base in class_def.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _is_program_class(class_def: ast.ClassDef) -> bool:
    return any(name.endswith("Program") for name in _base_names(class_def))


def _root_name(node: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _collect_locals(func: ast.AST, declared: set[str]) -> set[str]:
    """Names bound inside the kernel (excluding global/nonlocal ones)."""
    bound: set[str] = set()

    def bind(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if target.id not in declared:
                bound.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind(element)
        elif isinstance(target, ast.Starred):
            bind(target.value)

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            bind(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bind(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    bind(item.optional_vars)
        elif isinstance(node, ast.comprehension):
            bind(node.target)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not func:
                bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound


@register_rule
class BSPRaceRule(Rule):
    """Flag cross-vertex shared-state access in BSP kernel methods."""

    id = "bsp-race"
    severity = ERROR
    category = "concurrency"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        for node in module.nodes:
            if isinstance(node, ast.ClassDef) and _is_program_class(node):
                yield from self._check_class(node)

    def _check_class(self, class_def: ast.ClassDef) -> Iterator[Finding]:
        for item in class_def.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name in KERNEL_METHODS
            ):
                yield from self._check_kernel(class_def.name, item)

    def _check_kernel(self, class_name: str, func: ast.AST) -> Iterator[Finding]:
        args = func.args
        params = {
            arg.arg
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
        }
        self_name = None
        ordered = args.posonlyargs + args.args
        if ordered:
            self_name = ordered[0].arg
        declared: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        local_names = _collect_locals(func, declared)
        kernel = f"{class_name}.{func.name}"

        def classify_write(target: ast.expr, line: int) -> Finding | None:
            if isinstance(target, ast.Name):
                if target.id in declared:
                    return self.finding(
                        f"{kernel} writes {target.id!r} declared "
                        "global/nonlocal: shared across vertices under BSP",
                        line,
                    )
                return None  # plain local rebind
            root = _root_name(target)
            if root is None:
                return None
            if root == self_name:
                return self.finding(
                    f"{kernel} writes shared program state "
                    f"'{ast.unparse(target)}': the program instance is "
                    "shared by every vertex and worker",
                    line,
                )
            if root not in local_names and root not in params:
                return self.finding(
                    f"{kernel} mutates captured state "
                    f"'{ast.unparse(target)}': closure/global objects are "
                    "shared across vertices under BSP",
                    line,
                )
            return None

        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    finding = classify_write(target, node.lineno)
                    if finding is not None:
                        yield finding
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                finding = classify_write(node.target, node.lineno)
                if finding is not None:
                    yield finding
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    finding = classify_write(target, node.lineno)
                    if finding is not None:
                        yield finding
            elif isinstance(node, ast.Call):
                finding = self._classify_call(
                    node, kernel, self_name, params, local_names
                )
                if finding is not None:
                    yield finding
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                finding = self._classify_read(
                    node, kernel, self_name, params
                )
                if finding is not None:
                    yield finding

    def _classify_call(
        self,
        node: ast.Call,
        kernel: str,
        self_name: str | None,
        params: set[str],
        local_names: set[str],
    ) -> Finding | None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _MUTATORS:
            return None
        root = _root_name(func.value)
        if root is None:
            return None
        if root == self_name:
            return self.finding(
                f"{kernel} mutates shared program state via "
                f"'{ast.unparse(func)}()': the program instance is shared "
                "by every vertex and worker",
                node.lineno,
            )
        if root not in local_names and root not in params:
            return self.finding(
                f"{kernel} mutates captured state via "
                f"'{ast.unparse(func)}()': closure/global objects are "
                "shared across vertices under BSP",
                node.lineno,
            )
        return None

    def _classify_read(
        self,
        node: ast.Attribute,
        kernel: str,
        self_name: str | None,
        params: set[str],
    ) -> Finding | None:
        # Private-attribute reads through a parameter other than self
        # reach engine internals (ctx._engine, ctx._state): vertex
        # state must arrive via messages, not via the engine's tables.
        if not node.attr.startswith("_") or node.attr.startswith("__"):
            return None
        if not isinstance(node.value, ast.Name):
            return None
        root = node.value.id
        if root in params and root != self_name:
            return self.finding(
                f"{kernel} reads engine internals "
                f"'{ast.unparse(node)}': other vertices' state must be "
                "delivered via messages",
                node.lineno,
            )
        return None
