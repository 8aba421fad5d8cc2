"""``cost-protocol``: typestate checking of the CostMeter lifecycle.

The contract every engine relies on (see ``repro/core/cost.py``):

* ``begin_round`` opens a round; opening twice without an intervening
  ``end_round`` raises at runtime — here it is caught statically;
* every ``begin_round`` is matched by exactly one ``end_round`` on
  **all** paths, including paths through exception handlers that
  swallow an error raised mid-round;
* the in-round ``charge_*`` family must not run while no round is
  open (``charge_startup``/``allocate_memory``/``release_memory`` are
  exempt — they are legal outside rounds);
* the :class:`RoundRecord` returned by ``end_round`` is closed — any
  later write to it silently corrupts recorded profiles and breaks
  trace replay (the exact GPU-engine bug PR 4 fixed by hand; the
  regression fixture in ``tests/analysis/fixtures`` reintroduces it).

Analysis shape: a forward dataflow over the function CFG tracking the
set of possible open-round depths (0, 1, 2 — capped; the cap only
loses precision beyond a double-begin, which is already a violation).
Entry is assumed depth 0 — in this codebase rounds never span call
boundaries in the opening direction (validated by the sweep), and the
assumption is what makes local verdicts possible. Functions that do
not touch ``begin_round``/``end_round`` themselves are not judged
locally; instead they get a *summary* — net round delta at return,
and whether they (transitively) charge the meter — and call sites in
round-managing functions apply the summary, which is how a charge
buried two helpers deep is still caught against the caller's closed
state. Exceptions that *escape* a function mid-round are deliberately
not reported: the driver layer converts those runs into failures, and
the record never reaches a report. Exceptions that are *swallowed*
with a round open are reported, because execution then continues on a
corrupted meter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.dataflow.callgraph import (
    CallGraph,
    FunctionInfo,
    dotted_chain,
    own_nodes,
    project_call_graph,
)
from repro.analysis.dataflow.cfg import CFG, CFGNode, build_cfg, node_calls
from repro.analysis.dataflow.solver import ForwardAnalysis, solve_forward
from repro.analysis.engine import (
    ModuleContext,
    ProjectContext,
    ProjectRule,
    function_anchor,
    register_project_rule,
)
from repro.analysis.model import ERROR, Finding

__all__ = ["CostProtocolRule", "ProtocolSummary"]

#: CostMeter methods that require an open round (they charge into the
#: current RoundRecord). charge_startup, allocate_memory and
#: release_memory are legal outside rounds and therefore absent.
CHARGE_IN_ROUND = {
    "charge_compute",
    "charge_random_access",
    "charge_worker_compute",
    "charge_worker_messages",
    "charge_message",
    "charge_shuffle",
    "charge_disk_read",
    "charge_disk_write",
}

_OPEN = "begin_round"
_CLOSE = "end_round"

#: Open-depth cap; beyond a double-begin precision no longer matters.
_MAX_DEPTH = 2

#: In-place mutators that count as writes to a closed record.
_MUTATORS = {
    "append", "add", "extend", "update", "insert", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
}


@dataclass(frozen=True)
class ProtocolSummary:
    """Interprocedural facts about one function.

    ``exit_deltas`` — possible net changes to the caller's open-round
    depth when the function returns normally (assuming it entered with
    none of its own rounds open). ``requires_open`` — the function
    (transitively) charges the meter at a point where it has not
    opened a round of its own, i.e. it relies on the caller holding
    one.
    """

    exit_deltas: frozenset[int] = frozenset({0})
    requires_open: bool = False


_NEUTRAL = ProtocolSummary()


def _call_event(call: ast.Call) -> str | None:
    """Classify a call as a protocol event by method name."""
    chain = dotted_chain(call.func)
    if chain is None or len(chain) < 2:
        return None
    attr = chain[-1]
    if attr == _OPEN:
        return "open"
    if attr == _CLOSE:
        return "close"
    if attr in CHARGE_IN_ROUND:
        return "charge"
    return None


class _ProtocolAnalysis(ForwardAnalysis):
    """Depth-set analysis over one function."""

    def __init__(self, graph: CallGraph, info: FunctionInfo,
                 summaries: dict[str, ProtocolSummary]):
        self.graph = graph
        self.info = info
        self.summaries = summaries

    def initial_state(self):
        return frozenset({0})

    def join(self, a, b):
        return a | b

    def transfer(self, node: CFGNode, state):
        for call in node_calls(node):
            state = self._apply(call, state)
        return state

    def _apply(self, call: ast.Call, state):
        event = _call_event(call)
        if event == "open":
            return frozenset(min(d + 1, _MAX_DEPTH) for d in state)
        if event == "close":
            return frozenset(max(d - 1, 0) for d in state)
        if event == "charge":
            return state
        callee = self.graph.resolve_call(self.info, call)
        if callee is None:
            return state
        summary = self.summaries.get(callee.qualname, _NEUTRAL)
        if summary.exit_deltas == frozenset({0}):
            return state
        return frozenset(
            min(max(d + delta, 0), _MAX_DEPTH)
            for d in state
            for delta in summary.exit_deltas
        )


def _cached_cfg(cfgs: dict[str, CFG], info: FunctionInfo) -> CFG:
    cfg = cfgs.get(info.qualname)
    if cfg is None:
        cfg = build_cfg(info.node)
        cfgs[info.qualname] = cfg
    return cfg


def _analyze_function(
    graph: CallGraph,
    info: FunctionInfo,
    summaries: dict[str, ProtocolSummary],
    cfgs: dict[str, CFG],
) -> tuple[ProtocolSummary, CFG, dict[int, frozenset]]:
    cfg = _cached_cfg(cfgs, info)
    analysis = _ProtocolAnalysis(graph, info, summaries)
    in_states = solve_forward(cfg, analysis)
    exit_state = in_states.get(CFG.EXIT, frozenset({0}))
    requires_open = False
    for node in cfg.statement_nodes():
        state = in_states.get(node.index)
        if state is None:
            continue
        for call in node_calls(node):
            event = _call_event(call)
            if event == "charge":
                if 0 in state:
                    requires_open = True
            elif event is None:
                callee = graph.resolve_call(info, call)
                if callee is not None and summaries.get(
                    callee.qualname, _NEUTRAL
                ).requires_open and 0 in state:
                    requires_open = True
            # Opens/closes change state within _apply below.
            state = analysis._apply(call, state)
    return (
        ProtocolSummary(
            exit_deltas=exit_state or frozenset({0}),
            requires_open=requires_open,
        ),
        cfg,
        in_states,
    )


def _mentions_protocol(info: FunctionInfo) -> bool:
    for node in own_nodes(info.node):
        if isinstance(node, ast.Attribute) and (
            node.attr in CHARGE_IN_ROUND or node.attr in (_OPEN, _CLOSE)
        ):
            return True
    return False


def _relevant_functions(graph: CallGraph) -> set[str]:
    """Functions that (transitively) touch the CostMeter protocol.

    Everything else has the neutral summary by construction, so the
    fixpoint never needs to analyze it — the pruning that keeps the
    full-src run inside the selfcheck timing budget.
    """
    relevant = {
        qualname
        for qualname, info in graph.functions.items()
        if _mentions_protocol(info)
    }
    changed = True
    while changed:
        changed = False
        for qualname, info in graph.functions.items():
            if qualname in relevant:
                continue
            for _, callee in graph.calls_of(info):
                if callee is not None and callee.qualname in relevant:
                    relevant.add(qualname)
                    changed = True
                    break
    return relevant


def _manages_rounds(info: FunctionInfo) -> bool:
    for node in own_nodes(info.node):
        if isinstance(node, ast.Attribute) and node.attr in (_OPEN, _CLOSE):
            return True
    return False


@register_project_rule
class CostProtocolRule(ProjectRule):
    """Statically verify the CostMeter begin/charge/end lifecycle."""

    id = "cost-protocol"
    severity = ERROR
    category = "cost-accounting"

    def check(self, project: ProjectContext) -> Iterator[tuple[ModuleContext, Finding]]:
        """Yield ``(module, finding)`` protocol violations."""
        graph = project_call_graph(project)
        cfgs: dict[str, CFG] = project.cache.setdefault("cfgs", {})
        summaries = self._fixpoint_summaries(graph, cfgs)
        for module in project.modules:
            for info in graph.functions_of(module):
                if _manages_rounds(info):
                    yield from (
                        (module, finding)
                        for finding in self._check_manager(
                            graph, info, summaries, cfgs
                        )
                    )
                yield from (
                    (module, finding)
                    for finding in self._check_closed_records(info)
                )

    # -- summaries --------------------------------------------------------

    def _fixpoint_summaries(
        self, graph: CallGraph, cfgs: dict[str, CFG]
    ) -> dict[str, ProtocolSummary]:
        summaries: dict[str, ProtocolSummary] = {}
        ordered = [
            graph.functions[qualname]
            for qualname in sorted(_relevant_functions(graph))
        ]
        # Finite lattice (depth sets + one bool) and monotone updates:
        # a handful of passes reaches the fixpoint even through
        # recursion; the bound is a defensive backstop.
        for _ in range(8):
            changed = False
            for info in ordered:
                summary, _, _ = _analyze_function(graph, info, summaries, cfgs)
                if summaries.get(info.qualname) != summary:
                    summaries[info.qualname] = summary
                    changed = True
            if not changed:
                break
        return summaries

    # -- local verdicts ---------------------------------------------------

    def _check_manager(
        self,
        graph: CallGraph,
        info: FunctionInfo,
        summaries: dict[str, ProtocolSummary],
        cfgs: dict[str, CFG],
    ) -> Iterator[Finding]:
        _, cfg, in_states = _analyze_function(graph, info, summaries, cfgs)
        analysis = _ProtocolAnalysis(graph, info, summaries)
        for node in cfg.statement_nodes():
            state = in_states.get(node.index)
            if state is None:
                continue
            for call in node_calls(node):
                yield from self._judge_call(graph, info, summaries, call, state)
                state = analysis._apply(call, state)
        exit_state = in_states.get(CFG.EXIT)
        if exit_state and any(depth > 0 for depth in exit_state):
            yield self.finding(
                f"{info.name!r} can return with a round still open: some "
                "path (possibly through an exception handler that swallows "
                "an error raised mid-round) misses end_round",
                function_anchor(info.node),
            )

    def _judge_call(
        self,
        graph: CallGraph,
        info: FunctionInfo,
        summaries: dict[str, ProtocolSummary],
        call: ast.Call,
        state: frozenset,
    ) -> Iterator[Finding]:
        event = _call_event(call)
        if event == "open":
            if any(depth >= 1 for depth in state):
                yield self.finding(
                    f"{info.name!r} calls begin_round while a round may "
                    "already be open (end_round missing on some path into "
                    "this point)",
                    call.lineno,
                )
        elif event == "close":
            if state == frozenset({0}):
                yield self.finding(
                    f"{info.name!r} calls end_round with no round open",
                    call.lineno,
                )
        elif event == "charge":
            if state == frozenset({0}):
                attr = dotted_chain(call.func)[-1]
                yield self.finding(
                    f"{info.name!r} calls {attr} with no round open; "
                    "in-round charges outside begin_round/end_round raise "
                    "at runtime",
                    call.lineno,
                )
        else:
            callee = graph.resolve_call(info, call)
            if (
                callee is not None
                and summaries.get(callee.qualname, _NEUTRAL).requires_open
                and state == frozenset({0})
            ):
                yield self.finding(
                    f"{info.name!r} calls {callee.name!r}, which charges "
                    "the meter, while no round is open here",
                    call.lineno,
                )

    # -- closed-record immutability ---------------------------------------

    def _check_closed_records(self, info: FunctionInfo) -> Iterator[Finding]:
        """Flag writes to names bound from ``end_round(...)`` results.

        Flow-insensitive by design: a name is a *closed record* only
        when every assignment to it in the function is an
        ``end_round(...)`` result, so rebinding to anything else
        disqualifies it and no reaching-definition machinery is
        needed.
        """
        bound_from_close: set[str] = set()
        bound_otherwise: set[str] = set()
        for node in own_nodes(info.node):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value_is_close = (
                    isinstance(node.value, ast.Call)
                    and _call_event(node.value) == "close"
                )
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                targets = [node.target]
                value_is_close = False
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets = [node.target]
                value_is_close = False
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    if value_is_close:
                        bound_from_close.add(target.id)
                    else:
                        bound_otherwise.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List, ast.Starred)):
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            bound_otherwise.add(name_node.id)
                # Attribute/Subscript targets are *writes into* an
                # object, not rebindings of the root name — the write
                # detector below judges those.
        closed = bound_from_close - bound_otherwise
        if not closed:
            return
        for node in own_nodes(info.node):
            written: ast.expr | None = None
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                node_targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in node_targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        if _root_name(target) in closed:
                            written = target
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr in _MUTATORS:
                if _root_name(node.func.value) in closed:
                    written = node.func
            if written is not None:
                yield self.finding(
                    f"{info.name!r} writes to closed round record "
                    f"'{ast.unparse(written)}' after end_round returned it; "
                    "closed rounds are immutable (trace replay and profile "
                    "fingerprints depend on it) — pass overrides to "
                    "end_round instead",
                    written.lineno,
                )


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None
