"""Module- and package-level call graph over parsed modules.

Resolves, statically and conservatively:

* direct calls to module-level and nested functions (``helper(x)``);
* ``self.method()`` / ``cls.method()`` calls, walking base classes
  that are defined anywhere in the analyzed project (bases are matched
  by name — nominal, not structural);
* calls through import aliases (``from repro.x import f``,
  ``import repro.x.y as z; z.f()``), including relative imports;
* one level of simple assignment aliases (``g = helper; g(x)``): a
  name bound exactly once in the function, by a plain ``name = other``
  assignment. Each function's alias table is built on first use and
  kept on its :class:`FunctionInfo`, so a call through an unknown bare
  name costs one dict lookup, not a walk of the caller's body.

Anything else — calls on arbitrary objects, dynamic dispatch through
containers, decorators that replace functions — resolves to ``None``
and the dataflow rules treat the callee as unknown (no effects, no
taint propagation). That is an under-approximation at call *edges*
but keeps every reported interprocedural fact witnessed by a real
syntactic path, which is the precision bias the quality gate wants:
findings must be actionable, not speculative.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import PurePosixPath

from repro.analysis.engine import ModuleContext, ProjectContext, own_nodes

__all__ = [
    "FunctionInfo",
    "CallGraph",
    "build_call_graph",
    "project_call_graph",
    "module_name",
    "own_nodes",
    "dotted_chain",
]

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name(path: str) -> str:
    """Dotted module name of a source path.

    Anchored at the last ``src`` component when present (the repo
    layout), else at the first ``repro`` component, else just the file
    stem — good enough to match absolute imports inside the project.
    """
    pure = PurePosixPath(path.replace("\\", "/"))
    parts = list(pure.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:] if parts else ["<module>"]
    return ".".join(parts) or "<module>"


def dotted_chain(expr: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``, or ``None`` if not a chain."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


@dataclass
class FunctionInfo:
    """One analyzed function or method."""

    qualname: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    module: ModuleContext
    class_name: str | None = None
    parent: str | None = None  # enclosing function's qualname

    @property
    def param_names(self) -> list[str]:
        """Positional parameter names, in order."""
        args = self.node.args
        return [a.arg for a in args.posonlyargs + args.args]

    @property
    def receiver_name(self) -> str | None:
        """The ``self``/``cls`` parameter name for methods."""
        if self.class_name is None:
            return None
        params = self.param_names
        return params[0] if params else None

    @cached_property
    def nodes(self) -> tuple[ast.AST, ...]:
        """The function's own nodes (nested functions excluded), walked once."""
        return tuple(own_nodes(self.node))

    @cached_property
    def local_aliases(self) -> dict[str, str]:
        """Local name -> the name it aliases, for ``g = helper`` bindings.

        A name qualifies only when exactly one ``Assign`` target in the
        function is that bare name and the value is a bare name; tuple
        targets and other binding forms are not counted.
        """
        bindings: dict[str, int] = {}
        sources: dict[str, str] = {}
        for node in self.nodes:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings[target.id] = bindings.get(target.id, 0) + 1
                    if isinstance(node.value, ast.Name):
                        sources[target.id] = node.value.id
        return {
            name: source
            for name, source in sources.items()
            if bindings[name] == 1
        }


@dataclass
class _ClassInfo:
    qualname: str
    module_name: str
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname


def _import_aliases(nodes: list[ast.AST], package: str) -> dict[str, str]:
    """Local name -> dotted target for the imports among a module's
    nodes (:attr:`ModuleContext.nodes`)."""
    aliases: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package.split(".") if package else []
                cut = node.level - 1
                if cut:
                    base_parts = base_parts[:-cut] if cut <= len(base_parts) else []
                base = ".".join(base_parts)
            else:
                base = ""
            module = node.module or ""
            prefix = ".".join(part for part in (base, module) if part)
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{prefix}.{alias.name}" if prefix else alias.name
                aliases[alias.asname or alias.name] = target
    return aliases


class CallGraph:
    """Functions, classes, and resolved call edges of one project."""

    def __init__(self):
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, _ClassInfo] = {}  # qualname -> info
        self._classes_by_name: dict[str, list[_ClassInfo]] = {}
        self._module_functions: dict[str, dict[str, str]] = {}
        self._nested: dict[str, dict[str, str]] = {}
        self._aliases: dict[str, dict[str, str]] = {}
        self._module_names: dict[int, str] = {}  # id(ModuleContext) -> name
        self._by_module: dict[int, list[FunctionInfo]] = {}
        self._call_cache: dict[str, list[tuple[ast.Call, FunctionInfo | None]]] = {}

    # -- registration (build time) ---------------------------------------

    def _add_function(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info
        self._by_module.setdefault(id(info.module), []).append(info)

    # -- queries ----------------------------------------------------------

    def functions_of(self, module: ModuleContext) -> list[FunctionInfo]:
        """This module's functions, in document order."""
        return list(self._by_module.get(id(module), []))

    def calls_of(self, info: FunctionInfo) -> list[tuple[ast.Call, FunctionInfo | None]]:
        """The function's own call sites with resolved callees.

        Document order (by position); nested functions' calls belong
        to the nested function, not to the enclosing one.
        """
        cached = self._call_cache.get(info.qualname)
        if cached is None:
            calls = [node for node in info.nodes if isinstance(node, ast.Call)]
            calls.sort(key=lambda c: (c.lineno, c.col_offset))
            cached = [(call, self.resolve_call(info, call)) for call in calls]
            self._call_cache[info.qualname] = cached
        return cached

    def resolve_call(
        self, caller: FunctionInfo, call: ast.Call
    ) -> FunctionInfo | None:
        """Resolve one call site to a project function, if possible."""
        chain = dotted_chain(call.func)
        if chain is None:
            return None
        module = self._module_names[id(caller.module)]
        if len(chain) == 1:
            return self._resolve_name(caller, module, chain[0], depth=0)
        receiver = caller.receiver_name
        if receiver is not None and chain[0] == receiver and len(chain) == 2:
            return self._resolve_method(
                f"{module}.{caller.class_name}", chain[1], set()
            )
        # Import-alias chains: z.f(), repro.x.y.f().
        aliases = self._aliases.get(module, {})
        root = aliases.get(chain[0], chain[0] if chain[0] == "repro" else None)
        if root is None:
            return None
        dotted = ".".join([root] + chain[1:])
        info = self.functions.get(dotted)
        if info is not None:
            return info
        # z.Class.method / from-imported class: resolve final attr as
        # a method of a known class.
        head, _, method = dotted.rpartition(".")
        class_info = self.classes.get(head)
        if class_info is not None:
            return self._resolve_method(head, method, set())
        return None

    def _resolve_name(
        self, caller: FunctionInfo, module: str, name: str, depth: int
    ) -> FunctionInfo | None:
        # Nested functions of the caller (and its enclosing chain).
        scope: FunctionInfo | None = caller
        while scope is not None:
            nested = self._nested.get(scope.qualname, {})
            if name in nested:
                return self.functions.get(nested[name])
            scope = self.functions.get(scope.parent) if scope.parent else None
        # Module-level functions.
        qualname = self._module_functions.get(module, {}).get(name)
        if qualname is not None:
            return self.functions.get(qualname)
        # from-imports of project functions.
        target = self._aliases.get(module, {}).get(name)
        if target is not None and target in self.functions:
            return self.functions[target]
        # One level of simple local aliasing: g = helper; g(x).
        if depth == 0:
            original = caller.local_aliases.get(name)
            if original is not None:
                return self._resolve_name(caller, module, original, depth=1)
        return None

    def _resolve_method(
        self, class_qualname: str, method: str, seen: set[str]
    ) -> FunctionInfo | None:
        if class_qualname in seen:
            return None
        seen.add(class_qualname)
        class_info = self.classes.get(class_qualname)
        if class_info is None:
            return None
        if method in class_info.methods:
            return self.functions.get(class_info.methods[method])
        for base_name in class_info.bases:
            base = self._find_class(base_name, class_info.module_name)
            if base is not None:
                found = self._resolve_method(base.qualname, method, seen)
                if found is not None:
                    return found
        return None

    def _find_class(self, name: str, prefer_module: str) -> _ClassInfo | None:
        candidates = self._classes_by_name.get(name, [])
        if not candidates:
            return None
        for candidate in candidates:
            if candidate.module_name == prefer_module:
                return candidate
        return candidates[0] if len(candidates) == 1 else None


def _collect_module(graph: CallGraph, module: ModuleContext) -> None:
    name = module_name(module.path)
    graph._module_names[id(module)] = name
    # Relative imports resolve against the containing package: the
    # module's own name for an ``__init__`` (module_name already
    # stripped the suffix), its parent otherwise.
    if module.path.replace("\\", "/").endswith("__init__.py"):
        package = name
    else:
        package = name.rpartition(".")[0]
    graph._aliases[name] = _import_aliases(module.nodes, package)
    toplevel: dict[str, str] = {}
    graph._module_functions[name] = toplevel

    def add_function(
        node, qualname: str, class_name: str | None, parent: str | None
    ) -> FunctionInfo:
        info = FunctionInfo(
            qualname=qualname,
            name=node.name,
            node=node,
            module=module,
            class_name=class_name,
            parent=parent,
        )
        graph._add_function(info)
        collect_nested(node, info)
        return info

    def collect_nested(func, owner: FunctionInfo) -> None:
        nested: dict[str, str] = {}
        # Direct nested defs only; grandchildren are collected by the
        # recursive add_function call on each child.
        stack = list(ast.iter_child_nodes(func))
        while stack:
            child = stack.pop()
            if isinstance(child, _FUNCTION_NODES):
                qualname = f"{owner.qualname}.{child.name}"
                nested[child.name] = qualname
                add_function(child, qualname, owner.class_name, owner.qualname)
                continue
            if isinstance(child, (ast.Lambda, ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(child))
        if nested:
            graph._nested[owner.qualname] = nested

    for stmt in module.tree.body:
        if isinstance(stmt, _FUNCTION_NODES):
            qualname = f"{name}.{stmt.name}"
            toplevel[stmt.name] = qualname
            add_function(stmt, qualname, None, None)
        elif isinstance(stmt, ast.ClassDef):
            class_qualname = f"{name}.{stmt.name}"
            bases = []
            for base in stmt.bases:
                chain = dotted_chain(base)
                if chain:
                    bases.append(chain[-1])
            class_info = _ClassInfo(
                qualname=class_qualname, module_name=name, bases=bases
            )
            graph.classes[class_qualname] = class_info
            graph._classes_by_name.setdefault(stmt.name, []).append(class_info)
            for item in stmt.body:
                if isinstance(item, _FUNCTION_NODES):
                    method_qualname = f"{class_qualname}.{item.name}"
                    class_info.methods[item.name] = method_qualname
                    add_function(item, method_qualname, stmt.name, None)


def build_call_graph(modules: list[ModuleContext]) -> CallGraph:
    """Build the call graph of a set of parsed modules."""
    graph = CallGraph()
    for module in modules:
        _collect_module(graph, module)
    return graph


def project_call_graph(project: ProjectContext) -> CallGraph:
    """The project's call graph, built once and cached on the context."""
    graph = project.cache.get("callgraph")
    if graph is None:
        graph = build_call_graph(project.modules)
        project.cache["callgraph"] = graph
    return graph
