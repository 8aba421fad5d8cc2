"""Interprocedural dataflow analyses for the quality gate.

Layers, bottom up:

* :mod:`~repro.analysis.dataflow.cfg` — per-function control-flow
  graphs over the Python AST (branches, loops, ``try``/``except``/
  ``finally``, ``with``, early returns, exception edges);
* :mod:`~repro.analysis.dataflow.solver` — a generic forward worklist
  solver with collecting (may) semantics, and the round-robin fixpoint
  that solves per-function summaries to convergence;
* :mod:`~repro.analysis.dataflow.callgraph` — a project call graph
  resolving direct calls, ``self.``/``cls.`` methods, and import
  aliases, the carrier for per-function summaries;
* :mod:`~repro.analysis.dataflow.typestate` — the ``cost-protocol``
  rule: CostMeter ``begin_round``/``end_round`` lifecycle checking;
* :mod:`~repro.analysis.dataflow.taint` — the ``nondeterminism-flow``
  rule: nondeterministic values tracked to benchmark outputs.
"""

from repro.analysis.dataflow.callgraph import (
    CallGraph,
    FunctionInfo,
    build_call_graph,
    project_call_graph,
)
from repro.analysis.dataflow.cfg import (
    CFG,
    EXCEPTION,
    NORMAL,
    CFGNode,
    build_cfg,
    node_calls,
    node_exprs,
)
from repro.analysis.dataflow.solver import ForwardAnalysis, solve_forward
from repro.analysis.dataflow.taint import NondeterminismFlowRule, TaintSummary
from repro.analysis.dataflow.typestate import CostProtocolRule, ProtocolSummary

__all__ = [
    "NORMAL",
    "EXCEPTION",
    "CFG",
    "CFGNode",
    "build_cfg",
    "node_exprs",
    "node_calls",
    "ForwardAnalysis",
    "solve_forward",
    "CallGraph",
    "FunctionInfo",
    "build_call_graph",
    "project_call_graph",
    "CostProtocolRule",
    "ProtocolSummary",
    "NondeterminismFlowRule",
    "TaintSummary",
]
