"""A generic forward dataflow solver over :mod:`~repro.analysis.dataflow.cfg`.

Chaotic-iteration worklist algorithm with collecting (may) semantics:
an analysis supplies the initial state, a monotone transfer function,
and a join; the solver computes the least fixpoint of per-node
*in-states*. Exception edges propagate ``join(in, out)`` of the source
node — the raise may fire before or after the statement's own effects,
so handlers must be prepared for both.

:func:`solve_summaries` is the interprocedural counterpart: round-robin
passes over a project's functions until no per-function summary
changes.
"""

from __future__ import annotations

from typing import Callable, Generic, Hashable, Sequence, TypeVar

from repro.analysis.dataflow.callgraph import FunctionInfo
from repro.analysis.dataflow.cfg import CFG, EXCEPTION, CFGNode

__all__ = ["ForwardAnalysis", "solve_forward", "solve_summaries"]

State = TypeVar("State", bound=Hashable)
Summary = TypeVar("Summary")


class ForwardAnalysis(Generic[State]):
    """Base class for forward dataflow analyses.

    States must be immutable/hashable values; ``transfer`` must be
    monotone w.r.t. ``join`` for the fixpoint to terminate (all
    lattices used here are finite powersets, so any monotone transfer
    terminates).
    """

    def initial_state(self) -> State:
        """The state holding at function entry."""
        raise NotImplementedError

    def transfer(self, node: CFGNode, state: State) -> State:
        """The state after executing one node from ``state``."""
        raise NotImplementedError

    def join(self, a: State, b: State) -> State:
        """Least upper bound of two states."""
        raise NotImplementedError


def solve_forward(
    cfg: CFG,
    analysis: ForwardAnalysis[State],
    max_steps: int = 100_000,
) -> dict[int, State]:
    """Compute per-node in-states; unreachable nodes are absent.

    ``max_steps`` bounds worklist iterations as a defensive backstop
    (the finite lattices used by the shipped analyses converge in a
    handful of passes; hitting the bound raises rather than silently
    under-approximating).
    """
    in_states: dict[int, State] = {CFG.ENTRY: analysis.initial_state()}
    worklist: list[int] = [CFG.ENTRY]
    queued = {CFG.ENTRY}
    steps = 0
    while worklist:
        steps += 1
        if steps > max_steps:
            raise RuntimeError(
                f"dataflow solver did not converge within {max_steps} steps"
            )
        index = worklist.pop()
        queued.discard(index)
        state = in_states[index]
        node = cfg.nodes[index]
        out = analysis.transfer(node, state)
        for target, edge in node.succs:
            contribution = (
                analysis.join(state, out) if edge == EXCEPTION else out
            )
            if target in in_states:
                merged = analysis.join(in_states[target], contribution)
                if merged == in_states[target]:
                    continue
                in_states[target] = merged
            else:
                in_states[target] = contribution
            if target not in queued:
                worklist.append(target)
                queued.add(target)
    return in_states


def solve_summaries(
    functions: Sequence[FunctionInfo],
    summarize: Callable[[FunctionInfo, dict[str, Summary]], Summary],
    max_passes: int = 1_000,
) -> dict[str, Summary]:
    """The summary table (qualname -> summary) at its fixpoint.

    Each pass calls ``summarize(info, table)`` for ``functions`` in
    order, against the table as it stands, and stores every summary
    that changed; a pass without a change ends the iteration. A fact
    moves at least one call edge per pass, so an acyclic chain of n
    calls settles within n + 1 passes; ``max_passes`` is only a
    backstop against summaries that never settle, and hitting it
    raises rather than returning a table that silently misses deep
    flows.
    """
    table: dict[str, Summary] = {}
    for _ in range(max_passes):
        changed = False
        for info in functions:
            summary = summarize(info, table)
            if table.get(info.qualname) != summary:
                table[info.qualname] = summary
                changed = True
        if not changed:
            return table
    raise RuntimeError(
        f"summary fixpoint did not converge within {max_passes} passes"
    )
