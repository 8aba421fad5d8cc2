"""``nondeterminism-flow``: taint tracking for nondeterministic values.

The determinism contract (see ``rules_determinism``) bans wall-clock
and unseeded-randomness *calls* syntactically. This rule closes the
remaining gap: a nondeterministic **value** — an iteration order, an
OS directory listing, an object address — flowing into an output that
the benchmark's reproducibility depends on. Sources:

* iteration over a ``set`` (order is salted per process) or over
  ``os.listdir`` results (filesystem order); ``dict`` iteration is
  insertion-ordered in CPython but the *construction* order of dicts
  built from unordered inputs is not, so dict iteration seeds taint
  too — the conservative side of the trade-off;
* ``time.*`` reads, unseeded ``random.*`` draws, and ``id()``.

Sinks: message emission (``send``/``send_to_neighbors``/``_send``),
``charge_*`` arguments, writes into result/trace containers, and
partition-key computations. A value laundered *through a helper* is
still caught: the call graph supplies per-function summaries (does it
return taint? do its parameters reach a sink inside it? does it
return an unordered container?) so the report lands at the caller's
call site with the helper named.

Sanitizers kill taint: ``sorted(...)``, ``min``/``max``/``sum``/
``len`` — anything that reduces an unordered collection to an
order-independent value.

Precision choices (deliberate, documented for the DESIGN notes):
container types are inferred for **locals only** and only when every
binding of the name is a literal/constructor — ``self.adjacency``
stays untyped, so engines iterating instance state do not light up;
parameter summaries are all-or-nothing (a helper whose *any* param
reaches a sink flags *any* tainted argument) — an over-approximation
at the interprocedural edge that keeps each summary to two solver runs
(parameters unseeded, then seeded) per function.

Summaries are solved to their fixpoint once per analysis run. A
function is summarized again only when a callee summary it read has
changed since its last summarization; that summarization's intrinsic
flows are what ``check`` reports, so no function is solved twice
against the same inputs. A label names each helper hop once (``via
'walk'``, not ``via 'walk' via 'walk'``), which keeps the labels of
recursive helpers — and with them the fixpoint — finite.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.analysis.dataflow.callgraph import (
    CallGraph,
    FunctionInfo,
    dotted_chain,
    project_call_graph,
)
from repro.analysis.dataflow.cfg import CFG, CFGNode, node_exprs
from repro.analysis.dataflow.solver import (
    ForwardAnalysis,
    solve_forward,
    solve_summaries,
)
from repro.analysis.dataflow.typestate import CHARGE_IN_ROUND, _cached_cfg
from repro.analysis.engine import (
    ModuleContext,
    ProjectContext,
    ProjectRule,
    register_project_rule,
)
from repro.analysis.model import ERROR, Finding
from repro.analysis.rules_determinism import DETERMINISM_SCOPE

__all__ = ["NondeterminismFlowRule", "TaintSummary"]

#: Calls whose result is nondeterministic, by dotted name.
_SOURCE_CALLS = {
    "os.listdir": "os.listdir() filesystem order",
    "os.scandir": "os.scandir() filesystem order",
    "id": "id() object address",
}

#: Methods whose arguments are message/trace/charge sinks.
_SINK_ATTRS = {
    "send": "message emission",
    "send_to_neighbors": "message emission",
    "_send": "message emission",
}

#: Order-destroying calls: their result is deterministic even when
#: their input is an unordered collection.
_SANITIZERS = {"sorted", "len", "min", "max", "sum", "frozenset", "set"}

#: Name fragments marking an assignment target as a result/trace sink.
_RESULT_TOKENS = ("result", "trace", "record", "profile")

#: Name fragments marking a call as a partition-key computation.
_PARTITION_TOKENS = ("partition", "owner_of", "shard")


@dataclass(frozen=True)
class TaintSummary:
    """Interprocedural taint facts about one function.

    ``returns_taint`` — the return value may be nondeterministic from
    the function's *own* sources; ``taints_params_to_return`` — a
    tainted argument may flow to the return value; ``params_reach_sink``
    — a tainted argument may reach a sink inside the function (the
    caller's call site is then the reportable flow); ``returns_unordered``
    — the function returns a set/dict, so iterating its result seeds
    order taint at the caller.
    """

    returns_taint: str | None = None  # source label, or None
    taints_params_to_return: bool = False
    params_reach_sink: str | None = None  # sink label, or None
    returns_unordered: bool = False


_NEUTRAL = TaintSummary()


class _RecordedReads:
    """The summary table as one summarization sees it.

    Every callee summary looked up is recorded, so the fixpoint can
    tell whether a later table would still give the function the same
    inputs, and hence the same result.
    """

    def __init__(self, table: dict[str, TaintSummary]):
        self.table = table
        self.reads: dict[str, TaintSummary] = {}

    def read(self, qualname: str) -> TaintSummary:
        """The callee's summary (neutral when it has none yet)."""
        summary = self.table.get(qualname, _NEUTRAL)
        self.reads[qualname] = summary
        return summary


def _via(label: str, callee: FunctionInfo) -> str:
    """``label`` extended by the hop through ``callee``, named once."""
    hop = f" via {callee.name!r}"
    return label if hop in label else label + hop


def _unordered_locals(nodes: Iterable[ast.AST]) -> set[str]:
    """Names provably bound to set/dict values (locals only).

    A name qualifies only when *every* binding of it in the function
    is a set/dict literal, constructor call, or comprehension —
    single-source, flow-insensitive, no attribute inference.
    """
    unordered: set[str] = set()
    disqualified: set[str] = set()
    for node in nodes:
        if not isinstance(node, ast.Assign):
            continue
        is_unordered = _is_unordered_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                (unordered if is_unordered else disqualified).add(target.id)
            else:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        disqualified.add(sub.id)
    return unordered - disqualified


def _is_unordered_expr(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp)):
        return True
    if isinstance(expr, ast.Call):
        chain = dotted_chain(expr.func)
        return chain is not None and chain[-1] in ("set", "dict", "frozenset")
    return False


def _expr_names(expr: ast.expr) -> Iterator[ast.Name]:
    yield from (n for n in ast.walk(expr) if isinstance(n, ast.Name))


class _TaintAnalysis(ForwardAnalysis):
    """Tainted-local-names analysis over one function.

    The state is the frozenset of tainted names; ``labels`` records a
    human-readable source description per name (best effort — a side
    table, not part of the lattice).
    """

    def __init__(
        self,
        graph: CallGraph,
        info: FunctionInfo,
        summaries: _RecordedReads,
        seed_params: bool,
        unordered: set[str],
    ):
        self.graph = graph
        self.info = info
        self.summaries = summaries
        self.seed_params = seed_params
        self.unordered = unordered
        self.labels: dict[str, str] = {}

    def initial_state(self):
        if not self.seed_params:
            return frozenset()
        params = self.info.param_names
        if self.info.receiver_name is not None:
            params = params[1:]  # self/cls is not caller data
        for name in params:
            self.labels.setdefault(name, "tainted argument")
        return frozenset(params)

    def join(self, a, b):
        return a | b

    def transfer(self, node: CFGNode, state):
        stmt = node.stmt
        if stmt is None:
            return state
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            label = self.iteration_taint(stmt.iter, state)
            targets = [n.id for n in _expr_names(stmt.target)]
            if label is not None:
                for name in targets:
                    self.labels[name] = label
                return state | frozenset(targets)
            return state - frozenset(targets)
        if isinstance(stmt, ast.Assign):
            label = self.expr_taint(stmt.value, state)
            names: list[str] = []
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.append(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    names.extend(n.id for n in _expr_names(target))
            if label is not None:
                for name in names:
                    self.labels[name] = label
                return state | frozenset(names)
            return state - frozenset(names)
        if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            label = self.expr_taint(stmt.value, state)
            if label is not None:
                self.labels[stmt.target.id] = label
                return state | frozenset({stmt.target.id})
            return state
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.value is None:
                return state
            label = self.expr_taint(stmt.value, state)
            if label is not None:
                self.labels[stmt.target.id] = label
                return state | frozenset({stmt.target.id})
            return state - frozenset({stmt.target.id})
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            tainted: set[str] = set()
            for item in stmt.items:
                if item.optional_vars is None:
                    continue
                label = self.expr_taint(item.context_expr, state)
                if label is not None:
                    for name_node in _expr_names(item.optional_vars):
                        self.labels[name_node.id] = label
                        tainted.add(name_node.id)
            return state | frozenset(tainted)
        return state

    # -- expression classification ----------------------------------------

    def iteration_taint(self, iterable: ast.expr, state) -> str | None:
        """Why iterating ``iterable`` yields nondeterministic order."""
        if isinstance(iterable, ast.Name):
            if iterable.id in self.unordered:
                return "set/dict iteration order"
            if iterable.id in state:
                return self.labels.get(iterable.id, "tainted value")
            return None
        if isinstance(iterable, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp)):
            return "set/dict iteration order"
        if isinstance(iterable, ast.Call):
            chain = dotted_chain(iterable.func)
            if chain is not None:
                if chain[-1] in ("keys", "values", "items") and isinstance(
                    iterable.func, ast.Attribute
                ) and isinstance(iterable.func.value, ast.Name) and (
                    iterable.func.value.id in self.unordered
                ):
                    return "set/dict iteration order"
                if chain[-1] in ("set", "frozenset"):
                    return "set/dict iteration order"
            callee = self.graph.resolve_call(self.info, iterable)
            if callee is not None and self.summaries.read(
                callee.qualname
            ).returns_unordered:
                return (
                    f"unordered container returned by {callee.name!r}"
                )
        return self.expr_taint(iterable, state)

    def expr_taint(self, expr: ast.expr, state) -> str | None:
        """Source label if ``expr``'s value may be nondeterministic."""
        if isinstance(expr, ast.Call):
            chain = dotted_chain(expr.func)
            if chain is not None:
                name = chain[-1] if len(chain) == 1 else ".".join(chain)
                if chain[-1] in _SANITIZERS and len(chain) == 1:
                    return None  # order destroyed / order-independent
                if name in _SOURCE_CALLS:
                    return _SOURCE_CALLS[name]
                if chain[0] == "time":
                    return f"wall-clock {name}()"
                if chain[0] == "random":
                    return f"unseeded {name}()"
            callee = self.graph.resolve_call(self.info, expr)
            if callee is not None:
                summary = self.summaries.read(callee.qualname)
                if summary.returns_taint is not None:
                    return _via(summary.returns_taint, callee)
                if summary.taints_params_to_return:
                    for arg in _call_args(expr):
                        label = self.expr_taint(arg, state)
                        if label is not None:
                            return _via(label, callee)
                    return None
                # Known project function with a neutral summary: its
                # return value is clean even if arguments are tainted.
                return None
            # Unknown callee: conservatively propagate argument and
            # receiver taint through the call.
            for sub in _call_args(expr):
                label = self.expr_taint(sub, state)
                if label is not None:
                    return label
            if isinstance(expr.func, ast.Attribute):
                return self.expr_taint(expr.func.value, state)
            return None
        if isinstance(expr, ast.Name):
            if expr.id in state:
                return self.labels.get(expr.id, "tainted value")
            return None
        label = None
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                label = self.expr_taint(child, state)
                if label is not None:
                    return label
        return label


def _call_args(call: ast.Call) -> Iterator[ast.expr]:
    for arg in call.args:
        yield arg.value if isinstance(arg, ast.Starred) else arg
    for keyword in call.keywords:
        yield keyword.value


def _returns_unordered(info: FunctionInfo, unordered: set[str]) -> bool:
    saw_return = False
    for node in info.nodes:
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        saw_return = True
        value = node.value
        if _is_unordered_expr(value):
            continue
        if isinstance(value, ast.Name) and value.id in unordered:
            continue
        return False
    return saw_return


@dataclass(frozen=True)
class _Flow:
    """One observed taint-to-sink flow inside a function."""

    line: int
    source: str
    sink: str


@dataclass
class _Memo:
    """A function's last summarization: its result and its inputs."""

    summary: TaintSummary
    intrinsic: list[_Flow]  # flows from the function's own sources
    reads: dict[str, TaintSummary]  # callee qualname -> summary read

    def current(self, table: dict[str, TaintSummary]) -> bool:
        """Whether ``table`` still holds every summary read back then."""
        return all(
            table.get(qualname, _NEUTRAL) == summary
            for qualname, summary in self.reads.items()
        )


@register_project_rule
class NondeterminismFlowRule(ProjectRule):
    """Report nondeterministic values flowing into benchmark outputs."""

    id = "nondeterminism-flow"
    severity = ERROR
    category = "determinism"

    def check(self, project: ProjectContext) -> Iterator[tuple[ModuleContext, Finding]]:
        """Yield ``(module, finding)`` taint flows in scoped modules."""
        run = _TaintRun(project)
        for module in project.modules:
            if not module.in_scope(DETERMINISM_SCOPE):
                continue
            for info in run.graph.functions_of(module):
                # Only flows from the function's *own* sources are
                # reported here; a flow that exists only when the
                # parameters are assumed tainted is the callee half of
                # an interprocedural path and is reported at the
                # caller that supplies the tainted argument.
                for flow in run.memos[info.qualname].intrinsic:
                    yield module, self.finding(
                        f"{info.name!r}: nondeterministic value "
                        f"({flow.source}) reaches {flow.sink}; order- or "
                        "time-dependent output breaks run reproducibility "
                        "— sort or derive the value deterministically",
                        flow.line,
                    )


class _TaintRun:
    """One analysis run's taint summaries, solved to their fixpoint.

    ``summaries`` maps every function of the project to its
    :class:`TaintSummary`; ``memos`` keeps each function's last
    summarization. After the fixpoint every memo is current against
    ``summaries``, so its intrinsic flows are the function's findings.
    """

    def __init__(self, project: ProjectContext):
        self.graph = project_call_graph(project)
        self.cfgs: dict[str, CFG] = project.cache.setdefault("cfgs", {})
        self.memos: dict[str, _Memo] = {}
        ordered = [
            self.graph.functions[qualname]
            for qualname in sorted(self.graph.functions)
        ]
        self.summaries = solve_summaries(ordered, self._resummarize)

    def _resummarize(
        self, info: FunctionInfo, table: dict[str, TaintSummary]
    ) -> TaintSummary:
        """The function's summary, re-solved only if an input changed."""
        memo = self.memos.get(info.qualname)
        if memo is None or not memo.current(table):
            memo = self.summarize(info, table)
            self.memos[info.qualname] = memo
        return memo.summary

    def summarize(
        self, info: FunctionInfo, table: dict[str, TaintSummary]
    ) -> _Memo:
        """Summarize one function afresh against ``table``."""
        reads = _RecordedReads(table)
        unordered = _unordered_locals(info.nodes)
        intrinsic = self._run(info, reads, unordered, seed_params=False)
        with_params = self._run(info, reads, unordered, seed_params=True)
        # Differential attribution: anything the seeded run observes
        # beyond the intrinsic run is caused by the parameters.
        intrinsic_sites = {(flow.line, flow.sink) for flow in intrinsic.flows}
        param_sink = next(
            (
                flow.sink
                for flow in with_params.flows
                if (flow.line, flow.sink) not in intrinsic_sites
            ),
            None,
        )
        summary = TaintSummary(
            returns_taint=intrinsic.returned,
            taints_params_to_return=(
                with_params.returned is not None and intrinsic.returned is None
            ),
            params_reach_sink=param_sink,
            returns_unordered=_returns_unordered(info, unordered),
        )
        return _Memo(summary=summary, intrinsic=intrinsic.flows, reads=reads.reads)

    # -- per-function runs -------------------------------------------------

    def _run(
        self,
        info: FunctionInfo,
        summaries: _RecordedReads,
        unordered: set[str],
        seed_params: bool,
    ) -> _RunResult:
        cfg = _cached_cfg(self.cfgs, info)
        analysis = _TaintAnalysis(
            self.graph, info, summaries, seed_params, unordered
        )
        in_states = solve_forward(cfg, analysis)
        flows: list[_Flow] = []
        returned: str | None = None
        for node in cfg.statement_nodes():
            state = in_states.get(node.index)
            if state is None:
                continue
            stmt = node.stmt
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                label = analysis.expr_taint(stmt.value, state)
                if label is not None and returned is None:
                    returned = label
            flows.extend(self._judge_node(info, summaries, analysis, node, state))
        return _RunResult(flows=flows, returned=returned)

    def _judge_node(
        self,
        info: FunctionInfo,
        summaries: _RecordedReads,
        analysis: _TaintAnalysis,
        node: CFGNode,
        state,
    ) -> Iterator[_Flow]:
        stmt = node.stmt
        # Result/trace container writes.
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = _sink_container(target)
                    if root is not None:
                        label = analysis.expr_taint(stmt.value, state)
                        if label is not None:
                            yield _Flow(
                                line=stmt.lineno,
                                source=label,
                                sink=f"the {root} store",
                            )
        for expr in node_exprs(node):
            for call in (
                n for n in ast.walk(expr) if isinstance(n, ast.Call)
            ):
                yield from self._judge_call(info, summaries, analysis, call, state)

    def _judge_call(
        self,
        info: FunctionInfo,
        summaries: _RecordedReads,
        analysis: _TaintAnalysis,
        call: ast.Call,
        state,
    ) -> Iterator[_Flow]:
        chain = dotted_chain(call.func)
        attr = chain[-1] if chain else None
        sink: str | None = None
        if attr in _SINK_ATTRS:
            sink = _SINK_ATTRS[attr]
        elif attr is not None and attr in CHARGE_IN_ROUND:
            sink = f"{attr}() cost accounting"
        elif attr is not None and any(
            token in attr.lower() for token in _PARTITION_TOKENS
        ):
            sink = f"the {attr}() partition key"
        elif attr is not None and any(
            token in attr.lower() for token in _RESULT_TOKENS
        ) and isinstance(call.func, ast.Attribute) and attr in (
            "append", "add", "extend", "update", "insert",
        ):
            sink = "a result/trace container"
        if sink is None and isinstance(call.func, ast.Attribute) and (
            call.func.attr in ("append", "extend", "insert", "add", "update")
        ):
            root = _sink_container(call.func.value)
            if root is not None:
                sink = f"the {root} store"
        if sink is None:
            # Interprocedural: tainted argument to a helper whose
            # params reach a sink inside it.
            callee = self.graph.resolve_call(info, call)
            if callee is None:
                return
            summary = summaries.read(callee.qualname)
            if summary.params_reach_sink is None:
                return
            sink = f"{summary.params_reach_sink} inside {callee.name!r}"
        # One flow per call site: the first tainted argument wins.
        for arg in _call_args(call):
            label = analysis.expr_taint(arg, state)
            if label is not None:
                yield _Flow(line=call.lineno, source=label, sink=sink)
                return


@dataclass
class _RunResult:
    flows: list[_Flow]
    returned: str | None


def _sink_container(target: ast.expr) -> str | None:
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        name = node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and any(t in name.lower() for t in _RESULT_TOKENS):
            return name
        node = node.value
    if isinstance(node, ast.Name) and any(
        t in node.id.lower() for t in _RESULT_TOKENS
    ):
        return node.id
    return None
