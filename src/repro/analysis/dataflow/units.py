"""Interprocedural dimensional analysis over the cost plumbing.

The simulated cost model is the paper's load-bearing wall, and its two
worst historical bug classes were *unit* mistakes: the ``ru_maxrss``
KiB-recorded-as-bytes fix (PR 4) and the cost-physics fixes of the
hardware-profile refactor (PR 9). Both classes are statically visible
once every quantity carries a dimension, which is what this pass does:

* **Lattice.** A :class:`Unit` is a product of integer powers of base
  dimensions (``seconds``, ``bytes``, ``kibibytes``, ``ops``,
  ``messages``, ``workers``, ...), so rates compose naturally:
  ``bytes / (bytes/second) = seconds``. ``dimensionless`` is the empty
  product; ``unknown`` (no information) and ``conflict`` (joined
  incompatible facts) complete the lattice. Scalar *counts* — worker
  indices, message counts, ``num_workers`` — are deliberately seeded
  dimensionless: ``num_workers * bandwidth`` is a legitimate aggregate
  rate, and a count that multiplies a per-unit rate acts as a pure
  number. The ``workers``/``messages`` dimensions are reserved for
  quantities that *are* the collective (``record.remote_messages``),
  which is what makes ``remote_messages * message_latency_seconds``
  (messages x seconds/message) come out in seconds.
* **Seeding.** A declarative registry annotates the ``CostMeter``
  charge API, the ``RoundRecord``/``RoundTimes``/``ChokePointReport``
  fields, and the ``HardwareProfile``/``CpuModel``/``NicModel``/
  ``DiskModel`` parameters; naming conventions (``*_seconds``,
  ``*_bytes``, ``*_bandwidth``, ...) cover everything shaped like the
  cost layer; and a ``# units: <expr>`` pragma pins local variables
  and platform constants the conventions cannot see.
* **Propagation.** Assignments bind, multiply/divide compose
  dimensions, add/subtract/compare require compatibility, and calls
  go through per-function :class:`UnitSummary` fixpoints over the
  project call graph, so a helper that returns ``bytes / bandwidth``
  is known to return seconds at every call site.

Findings (the ``cost-units`` family):

* ``cost-units.mixed-arithmetic`` — adding, subtracting, comparing, or
  binding quantities of incompatible dimensions.
* ``cost-units.call-argument`` — an argument whose unit contradicts
  the parameter's declared unit.
* ``cost-units.keyword-swap`` — two arguments whose units match each
  other's slots crosswise (a transposed call).
* ``cost-units.rate-inversion`` — a product with a squared dimension,
  the signature of multiplying by a bandwidth where dividing is needed.
* ``cost-units.unconverted`` — same dimension, wrong scale: kibibytes
  bound to a ``*_bytes`` target without the ``* 1024``.

Precision bias: ``unknown`` and ``dimensionless`` are always
compatible, so only two *positively known, incompatible* units ever
produce a finding — the gate wants actionable reports, not dimension
annotations for their own sake.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.dataflow.callgraph import (
    CallGraph,
    FunctionInfo,
    dotted_chain,
    project_call_graph,
)
from repro.analysis.dataflow.cfg import CFG
from repro.analysis.dataflow.solver import ForwardAnalysis, solve_forward
from repro.analysis.dataflow.typestate import _cached_cfg
from repro.analysis.engine import (
    ModuleContext,
    ProjectContext,
    ProjectRule,
    _comment_lines,
    register_project_rule,
    statement_anchors,
)
from repro.analysis.model import ERROR, Finding

__all__ = [
    "Unit",
    "UNKNOWN",
    "CONFLICT",
    "DIMENSIONLESS",
    "UnitSummary",
    "parse_unit",
    "unit_of_name",
    "UNITS_SCOPE",
    "SIGNATURES",
    "NAME_UNITS",
    "SUFFIX_UNITS",
    "CONVERSIONS",
]

#: Path fragments the dimensional contract covers: the cost meter, the
#: host-resource monitor, the hardware package, and every platform
#: cost model.
UNITS_SCOPE = (
    "repro/core/cost",
    "repro/core/monitor",
    "repro/core/chokepoints",
    "repro/hardware",
    "repro/platforms",
)


# -- the unit lattice ------------------------------------------------------


@dataclass(frozen=True)
class Unit:
    """One point of the unit lattice.

    ``kind`` is ``"unit"`` for a concrete product of dimensions (held
    in ``dims`` as sorted ``(dimension, exponent)`` pairs), or the
    lattice specials ``"unknown"`` / ``"conflict"``.
    """

    kind: str = "unit"
    dims: tuple[tuple[str, int], ...] = ()

    @property
    def concrete(self) -> bool:
        """Whether this is a known product of dimensions."""
        return self.kind == "unit"

    @property
    def dimensionless(self) -> bool:
        """Whether this is the empty product (a pure number)."""
        return self.concrete and not self.dims

    def __str__(self) -> str:
        if not self.concrete:
            return self.kind
        if not self.dims:
            return "dimensionless"

        def part(dim: str, exp: int) -> str:
            return dim if exp == 1 else f"{dim}^{exp}"

        num = [part(d, e) for d, e in self.dims if e > 0]
        den = [part(d, -e) for d, e in self.dims if e < 0]
        text = "*".join(num) if num else "1"
        if den:
            text += "/" + "*".join(den)
        return text


UNKNOWN = Unit(kind="unknown")
CONFLICT = Unit(kind="conflict")
DIMENSIONLESS = Unit()


def base_unit(dimension: str) -> Unit:
    """The unit of one base dimension to the first power."""
    return Unit(dims=((dimension, 1),))


def _combine(a: Unit, b: Unit, sign: int) -> Unit:
    """Multiply (``sign=+1``) or divide (``sign=-1``) two units."""
    if a.kind == "conflict" or b.kind == "conflict":
        return CONFLICT
    if not a.concrete or not b.concrete:
        return UNKNOWN
    exponents = dict(a.dims)
    for dim, exp in b.dims:
        exponents[dim] = exponents.get(dim, 0) + sign * exp
        if exponents[dim] == 0:
            del exponents[dim]
    return Unit(dims=tuple(sorted(exponents.items())))


def unit_mul(a: Unit, b: Unit) -> Unit:
    """Product of two units (dimension exponents add)."""
    return _combine(a, b, +1)


def unit_div(a: Unit, b: Unit) -> Unit:
    """Quotient of two units (dimension exponents subtract)."""
    return _combine(a, b, -1)


def unit_join(a: Unit, b: Unit) -> Unit:
    """Least upper bound: equal units stay, disagreements widen."""
    if a == b:
        return a
    if a.kind == "conflict" or b.kind == "conflict":
        return CONFLICT
    if not a.concrete or not b.concrete:
        return UNKNOWN
    # Two different concrete units joined: the value's unit depends on
    # the path taken — a real inconsistency, kept as lattice top.
    return CONFLICT


def compatible(a: Unit, b: Unit) -> bool:
    """Whether two units may meet in add/subtract/compare.

    Unknown/conflict carry no positive information and a pure number
    participates freely (literal zero inits, ``+ 1`` idioms), so only
    two concrete, non-dimensionless, *different* units are incompatible.
    """
    if not a.concrete or not b.concrete:
        return True
    if a.dimensionless or b.dimensionless:
        return True
    return a == b


# -- the declarative registry ----------------------------------------------

#: Scaled units convertible into a canonical one by multiplying the
#: *number* by the factor: a count of kibibytes times 1024 is a count
#: of bytes; a count of microseconds times 1e-6 is a count of seconds.
CONVERSIONS: dict[tuple[str, float], str] = {
    ("kibibytes", 1024.0): "bytes",
    ("mebibytes", 1024.0 ** 2): "bytes",
    ("microseconds", 1e-6): "seconds",
    ("milliseconds", 1e-3): "seconds",
}

#: Inverse view: dividing a canonical count by the factor recovers the
#: scaled unit (bytes / 1024 -> kibibytes).
_INVERSE_CONVERSIONS = {
    (canonical, factor): scaled
    for (scaled, factor), canonical in CONVERSIONS.items()
}

#: Pairs of same-dimension units and the factor between them, for the
#: ``cost-units.unconverted`` hint.
_RELATED: dict[frozenset[str], tuple[str, str, float]] = {
    frozenset({scaled, canonical}): (scaled, canonical, factor)
    for (scaled, factor), canonical in CONVERSIONS.items()
}

#: Dimension-name aliases accepted by the pragma/registry grammar.
_ALIASES = {
    "seconds": "seconds", "second": "seconds", "s": "seconds",
    "bytes": "bytes", "byte": "bytes",
    "kibibytes": "kibibytes", "kibibyte": "kibibytes", "kib": "kibibytes",
    "mebibytes": "mebibytes", "mebibyte": "mebibytes", "mib": "mebibytes",
    "microseconds": "microseconds", "microsecond": "microseconds",
    "us": "microseconds",
    "milliseconds": "milliseconds", "millisecond": "milliseconds",
    "ms": "milliseconds",
    "ops": "ops", "op": "ops", "operations": "ops", "operation": "ops",
    "accesses": "ops", "access": "ops",
    "messages": "messages", "message": "messages",
    "msgs": "messages", "msg": "messages",
    "workers": "workers", "worker": "workers",
    "vertices": "vertices", "vertex": "vertices",
    "edges": "edges", "edge": "edges",
}

#: Tokens meaning "a pure number" in pragmas and the registry.
_DIMENSIONLESS_TOKENS = {"1", "dimensionless", "scalar", "count"}

#: Dimensions that denote measured quantities (as opposed to entity
#: counts like ``vertices`` or ``workers``, which the name conventions
#: treat as pure numbers).
_QUANTITY_DIMS = {
    "seconds", "bytes", "kibibytes", "mebibytes",
    "microseconds", "milliseconds", "ops", "messages",
}


def parse_unit(text: str) -> Unit | None:
    """Parse ``bytes``, ``bytes/second``, ``ops*seconds``, ``1``, ...

    Grammar: ``term ('*' term)*`` segments separated by ``/``; the
    first segment is the numerator, every later one divides. Unknown
    dimension names make the whole expression unparseable (``None``)
    rather than silently dimensionless.
    """
    unit = DIMENSIONLESS
    for index, segment in enumerate(text.strip().lower().split("/")):
        for token in segment.split("*"):
            token = token.strip()
            if not token or token in _DIMENSIONLESS_TOKENS:
                continue
            dimension = _ALIASES.get(token)
            if dimension is None:
                return None
            factor = base_unit(dimension)
            unit = unit_mul(unit, factor) if index == 0 else unit_div(unit, factor)
    return unit


#: Exact identifier names (variables, attributes, parameters) with a
#: declared unit; consulted before the suffix conventions. These cover
#: the rusage interface, the hardware models, and the per-rate fields
#: whose ``_seconds`` suffix alone would mis-declare them (a
#: per-message latency is seconds *per message*).
NAME_UNITS: dict[str, str] = {
    # resource.getrusage: Linux reports ru_maxrss in kibibytes (the
    # PR 4 bug was recording that figure as bytes).
    "ru_maxrss": "kibibytes",
    # CostMeter / RoundRecord / RoundTimes.
    "ops": "ops",
    "seconds": "seconds",
    "random_accesses": "ops",
    "local_messages": "messages",
    "remote_messages": "messages",
    # Hardware models (CpuModel / NicModel / DiskModel / profiles).
    "bandwidth": "bytes/second",
    "ops_per_second": "ops/second",
    "worker_ops_per_second": "ops/second",
    "message_latency_seconds": "seconds/message",
    "nic_message_latency_seconds": "seconds/message",
    "random_access_seconds": "seconds/op",
    # Pure counts: scale aggregate rates as plain numbers (see the
    # module docstring for why these are not the `workers` dimension).
    "num_workers": "1",
    "cores": "1",
    "count": "1",
    "active_vertices": "1",
    "worker": "1",
    "src_worker": "1",
    "dst_worker": "1",
}

#: Suffix conventions, applied after the exact-name table (and after
#: stripping a trailing ``_per_worker``: a per-worker bytes list still
#: holds bytes). Matched case-insensitively.
SUFFIX_UNITS: tuple[tuple[str, str], ...] = (
    ("_seconds", "seconds"),
    ("_bytes", "bytes"),
    ("_kib", "kibibytes"),
    ("_ops", "ops"),
    ("_messages", "messages"),
    ("_bandwidth", "bytes/second"),
    ("_factor", "1"),
    ("_fraction", "1"),
    ("_ratio", "1"),
)

#: Name segments stripped before suffix matching.
_STRIPPABLE = ("_per_worker",)


def unit_of_name(name: str) -> Unit | None:
    """The declared unit of an identifier, by registry or convention."""
    lowered = name.lower()
    for candidate in (lowered,) + tuple(
        lowered[: -len(strippable)]
        for strippable in _STRIPPABLE
        if lowered.endswith(strippable)
    ):
        declared = NAME_UNITS.get(candidate)
        if declared is not None:
            return parse_unit(declared)
        for suffix, unit_text in SUFFIX_UNITS:
            if candidate.endswith(suffix):
                return parse_unit(unit_text)
        # A bare quantity word left behind by stripping
        # (``bytes_per_worker`` strips to ``bytes``) declares that unit
        # directly. Entity-count words (``vertices_per_worker`` strips
        # to ``vertices``) stay unknown: counts are dimensionless in
        # this registry, not quantities of an entity dimension.
        if candidate != lowered and _ALIASES.get(candidate) in _QUANTITY_DIMS:
            return parse_unit(candidate)
    return None


#: Annotated signatures, keyed by function/method name, as ordered
#: ``(parameter, unit-or-None)`` pairs with the receiver omitted.
#: ``None`` leaves a parameter unchecked (booleans, duck-typed
#: records); ``"1"`` *declares* a pure count, so passing bytes into a
#: count slot (a transposed call) is a finding. Used both when a call
#: resolves through the call graph and — keyed by attribute name — for
#: unresolved method calls like ``meter.charge_message(...)``.
SIGNATURES: dict[str, tuple[tuple[str, str | None], ...]] = {
    # CostMeter charge API.
    "charge_compute": (("worker", "1"), ("ops", "ops")),
    "charge_random_access": (("worker", "1"), ("count", "ops")),
    "charge_worker_compute": (("ops", "ops"), ("random_accesses", "ops")),
    "charge_message": (
        ("src_worker", "1"), ("dst_worker", "1"),
        ("payload_bytes", "bytes"), ("count", "1"),
    ),
    "charge_worker_messages": (
        ("src_workers", "1"), ("dst_workers", "1"), ("payload_bytes", "bytes"),
    ),
    "charge_shuffle": (("num_bytes", "bytes"), ("count", "1")),
    "charge_disk_read": (("worker", None), ("num_bytes", "bytes")),
    "charge_disk_write": (("worker", None), ("num_bytes", "bytes")),
    "charge_disk_random": (
        ("worker", "1"), ("num_bytes", "bytes"), ("write", None),
    ),
    "allocate_memory": (("worker", "1"), ("num_bytes", "bytes")),
    "release_memory": (("worker", "1"), ("num_bytes", "bytes")),
    "end_round": (("active_vertices", "1"), ("barrier_seconds", "seconds")),
    # HardwareProfile and the component device models.
    "round_times": (
        ("charges", None), ("num_workers", "1"),
        ("straggler_penalty_seconds", "seconds"),
        ("barrier_override", "seconds"),
    ),
    "worker_seconds": (("ops", "ops"), ("random_accesses", "ops")),
    "service_seconds": (
        ("remote_bytes", "bytes"), ("remote_messages", "messages"),
        ("num_workers", "1"),
    ),
    "queueing_seconds": (
        ("service_seconds", "seconds"), ("compute_seconds", "seconds"),
    ),
    "round_seconds": (
        ("striped_read_bytes", "bytes"), ("striped_write_bytes", "bytes"),
        ("bytes_per_worker", "bytes"), ("random_bytes_per_worker", "bytes"),
        ("num_workers", "1"),
    ),
    "memory_pressure_multiplier": (("live_memory_bytes", "bytes"),),
    "straggler_penalty_seconds": (
        ("ops_per_worker", "ops"), ("random_accesses_per_worker", "ops"),
        ("worker_ops_per_second", "ops/second"),
        ("random_access_seconds", "seconds/op"),
    ),
}

#: ``# units: <expr>`` — declares the unit of the assignment target(s)
#: on the same line. Anchored like the quality suppressions: the
#: pragma is the comment, not prose mentioning it.
_PRAGMA = re.compile(r"^#\s*units:\s*(?P<expr>[\w*/ .^-]+)")

#: Builtins that return their (first) argument's unit unchanged.
_UNIT_PRESERVING_CALLS = {
    "float", "int", "abs", "round", "min", "max", "sum", "sorted",
}

#: Builtins returning a pure count.
_DIMENSIONLESS_CALLS = {"len", "range", "enumerate", "id", "hash", "ord"}


# -- severities ------------------------------------------------------------

_RULE_IDS = (
    "cost-units.mixed-arithmetic",
    "cost-units.call-argument",
    "cost-units.keyword-swap",
    "cost-units.rate-inversion",
    "cost-units.unconverted",
)

_CATEGORY = "cost-units"


def _make_finding(rule: str, message: str, line: int) -> Finding:
    return Finding(
        rule=rule, message=message, line=line, severity=ERROR,
        category=_CATEGORY,
    )


# -- summaries -------------------------------------------------------------


@dataclass(frozen=True)
class UnitSummary:
    """Interprocedural summary of one function.

    ``params`` are the declared parameter units (registry signature,
    pragma, or naming convention — stable across fixpoint rounds);
    ``returns`` is the join over every return expression's unit, so a
    helper computing ``bytes / bandwidth`` summarizes as seconds.
    """

    params: tuple[tuple[str, Unit], ...]
    returns: Unit = UNKNOWN


def _declared_params(name: str, param_names: list[str]) -> dict[str, Unit]:
    """Declared parameter units of a function, registry first."""
    declared: dict[str, Unit] = {}
    signature = SIGNATURES.get(name)
    if signature is not None:
        for param, unit_text in signature:
            if unit_text is not None:
                unit = parse_unit(unit_text)
                if unit is not None:
                    declared[param] = unit
    for param in param_names:
        if param not in declared:
            unit = unit_of_name(param)
            if unit is not None:
                declared[param] = unit
    return declared


def _signature_slots(
    call: ast.Call, info: FunctionInfo | None
) -> list[tuple[str, Unit | None]]:
    """Positional ``(param, declared-unit)`` slots for a call site.

    Resolved callees contribute their real parameter list (receiver
    dropped); unresolved attribute calls fall back to the registry
    signature for the attribute name.
    """
    if info is not None:
        params = info.param_names
        if info.receiver_name is not None and params:
            params = params[1:]
        declared = _declared_params(info.name, params)
        return [(param, declared.get(param)) for param in params]
    chain = dotted_chain(call.func)
    name = chain[-1] if chain else None
    signature = SIGNATURES.get(name or "")
    if signature is None:
        return []
    return [
        (param, parse_unit(unit_text) if unit_text is not None else None)
        for param, unit_text in signature
    ]


# -- per-function environment analysis -------------------------------------

_State = tuple[tuple[str, Unit], ...]


def _bind(state: _State, name: str, unit: Unit) -> _State:
    env = dict(state)
    env[name] = unit
    return tuple(sorted(env.items()))


class _EnvAnalysis(ForwardAnalysis):
    """Forward per-name unit environment over one function's CFG."""

    def __init__(self, evaluator: "_FunctionEvaluator"):
        self.evaluator = evaluator

    def initial_state(self) -> _State:
        return self.evaluator.initial_state

    def join(self, a: _State, b: _State) -> _State:
        left, right = dict(a), dict(b)
        merged: dict[str, Unit] = {}
        for name in left.keys() | right.keys():
            if name in left and name in right:
                merged[name] = unit_join(left[name], right[name])
            else:
                merged[name] = left.get(name) or right.get(name)
        return tuple(sorted(merged.items()))

    def transfer(self, node, state: _State) -> _State:
        stmt = node.stmt
        if stmt is None:
            return state
        return self.evaluator.transfer(stmt, state)


class _FunctionEvaluator:
    """Evaluates expressions to units inside one function.

    One instance serves both the summary fixpoint (``sink=None``,
    effects only) and the reporting pass (``sink`` collects findings);
    the transfer function itself never reports, so re-running it to a
    fixpoint cannot duplicate findings.
    """

    def __init__(
        self,
        owner: "_UnitsAnalysis",
        info: FunctionInfo,
        summaries: dict[str, UnitSummary],
    ):
        self.owner = owner
        self.info = info
        self.summaries = summaries
        self.pragmas = owner.pragmas_of(info.module)
        self.constants = owner.constants_of(info.module)
        self.sink: list[Finding] | None = None
        self.anchors: dict[int, int] = {}
        declared = _declared_params(info.name, info.param_names)
        env: dict[str, Unit] = {}
        receiver = info.receiver_name
        for param in info.param_names:
            if param == receiver:
                continue
            unit = declared.get(param)
            if unit is not None:
                env[param] = unit
        self.initial_state: _State = tuple(sorted(env.items()))

    # -- reporting helpers -------------------------------------------------

    def _line(self, node: ast.AST) -> int:
        line = getattr(node, "lineno", 1)
        return self.anchors.get(id(node), line)

    def _report(self, rule: str, message: str, node: ast.AST) -> None:
        if self.sink is not None:
            self.sink.append(_make_finding(rule, message, self._line(node)))

    def _report_incompatible(
        self, context: str, value: Unit, declared: Unit, node: ast.AST
    ) -> None:
        """Classify an incompatibility as unconverted vs mixed."""
        related = self._relation(value, declared)
        if related is not None:
            scaled, canonical, factor = related
            direction = (
                f"multiply by {factor:g}"
                if str(value) == scaled
                else f"divide by {factor:g}"
            )
            self._report(
                "cost-units.unconverted",
                f"{context}: value in {value} where {declared} is "
                f"expected; {direction} to convert",
                node,
            )
        else:
            self._report(
                "cost-units.mixed-arithmetic",
                f"{context}: {value} is incompatible with {declared}",
                node,
            )

    @staticmethod
    def _relation(a: Unit, b: Unit) -> tuple[str, str, float] | None:
        if not (a.concrete and b.concrete):
            return None
        if len(a.dims) != 1 or len(b.dims) != 1:
            return None
        if a.dims[0][1] != 1 or b.dims[0][1] != 1:
            return None
        return _RELATED.get(frozenset({a.dims[0][0], b.dims[0][0]}))

    # -- expression evaluation ---------------------------------------------

    def lookup(self, name: str, env: dict[str, Unit]) -> Unit:
        bound = env.get(name)
        if bound is not None:
            return bound
        constant = self.constants.get(name)
        if constant is not None:
            return constant
        declared = unit_of_name(name)
        return declared if declared is not None else UNKNOWN

    def unit_of(self, expr: ast.expr, env: dict[str, Unit]) -> Unit:
        """The unit of one expression, reporting en route when armed."""
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, (int, float)) and not isinstance(
                expr.value, bool
            ):
                return DIMENSIONLESS
            return UNKNOWN
        if isinstance(expr, ast.Name):
            return self.lookup(expr.id, env)
        if isinstance(expr, ast.Attribute):
            # The attribute name alone declares the unit — a
            # ``record.remote_bytes`` is bytes whatever ``record`` is.
            self.unit_of(expr.value, env)
            declared = unit_of_name(expr.attr)
            if declared is not None:
                return declared
            constant = self.constants.get(expr.attr)
            return constant if constant is not None else UNKNOWN
        if isinstance(expr, ast.BinOp):
            return self._binop_unit(expr, env)
        if isinstance(expr, ast.UnaryOp):
            return self.unit_of(expr.operand, env)
        if isinstance(expr, ast.BoolOp):
            unit = UNKNOWN
            for value in expr.values:
                unit = unit_join(unit, self.unit_of(value, env))
            return unit
        if isinstance(expr, ast.Compare):
            left_unit = self.unit_of(expr.left, env)
            for comparator in expr.comparators:
                right_unit = self.unit_of(comparator, env)
                if not compatible(left_unit, right_unit):
                    self._report_incompatible(
                        "comparison", left_unit, right_unit, expr
                    )
                left_unit = right_unit
            return DIMENSIONLESS
        if isinstance(expr, ast.Call):
            return self._call_unit(expr, env)
        if isinstance(expr, ast.IfExp):
            self.unit_of(expr.test, env)
            return unit_join(
                self.unit_of(expr.body, env), self.unit_of(expr.orelse, env)
            )
        if isinstance(expr, ast.Subscript):
            # Containers carry their element unit (a per-worker bytes
            # list is bytes); indexing passes it through.
            self.unit_of(expr.slice, env)
            return self.unit_of(expr.value, env)
        if isinstance(expr, (ast.Starred, ast.NamedExpr)):
            return self.unit_of(expr.value, env)
        return self._container_unit(expr, env)

    def _container_unit(self, expr: ast.expr, env: dict[str, Unit]) -> Unit:
        """Units of the container/comprehension expression forms."""
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            unit = UNKNOWN
            for element in expr.elts:
                element_unit = self.unit_of(element, env)
                unit = (
                    element_unit
                    if unit is UNKNOWN
                    else unit_join(unit, element_unit)
                )
            return unit
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            inner = self._comprehension_env(expr, env)
            return self.unit_of(expr.elt, inner)
        if isinstance(expr, ast.DictComp):
            inner = self._comprehension_env(expr, env)
            self.unit_of(expr.key, inner)
            return self.unit_of(expr.value, inner)
        if isinstance(expr, ast.Dict):
            for key in expr.keys:
                if key is not None:
                    self.unit_of(key, env)
            for value in expr.values:
                self.unit_of(value, env)
        return UNKNOWN

    def _comprehension_env(self, expr, env: dict[str, Unit]) -> dict[str, Unit]:
        inner = dict(env)
        for generator in expr.generators:
            iter_unit = self.unit_of(generator.iter, inner)
            for name in self._target_names(generator.target):
                inner[name] = iter_unit if len(
                    self._target_names(generator.target)
                ) == 1 else UNKNOWN
            for condition in generator.ifs:
                self.unit_of(condition, inner)
        return inner

    @staticmethod
    def _target_names(target: ast.expr) -> list[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            names: list[str] = []
            for element in target.elts:
                names.extend(_FunctionEvaluator._target_names(element))
            return names
        return []

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _const_value(expr: ast.expr) -> float | None:
        """Fold a literal numeric expression (1024, 2**20, 1024*1024)."""
        if isinstance(expr, ast.Constant) and isinstance(
            expr.value, (int, float)
        ) and not isinstance(expr.value, bool):
            return float(expr.value)
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            value = _FunctionEvaluator._const_value(expr.operand)
            return -value if value is not None else None
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.Mult, ast.Pow)
        ):
            left = _FunctionEvaluator._const_value(expr.left)
            right = _FunctionEvaluator._const_value(expr.right)
            if left is None or right is None:
                return None
            return left * right if isinstance(expr.op, ast.Mult) else left ** right
        return None

    @staticmethod
    def _converted(unit: Unit, factor: float) -> Unit | None:
        """Unit after multiplying the *number* by a conversion literal."""
        if not unit.concrete or len(unit.dims) != 1 or unit.dims[0][1] != 1:
            return None
        target = CONVERSIONS.get((unit.dims[0][0], factor))
        return base_unit(target) if target is not None else None

    @staticmethod
    def _deconverted(unit: Unit, factor: float) -> Unit | None:
        """Unit after dividing the *number* by a conversion literal."""
        if not unit.concrete or len(unit.dims) != 1 or unit.dims[0][1] != 1:
            return None
        source = _INVERSE_CONVERSIONS.get((unit.dims[0][0], factor))
        return base_unit(source) if source is not None else None

    def _binop_unit(self, expr: ast.BinOp, env: dict[str, Unit]) -> Unit:
        left = self.unit_of(expr.left, env)
        right = self.unit_of(expr.right, env)
        op = expr.op
        if isinstance(op, ast.Mult):
            for unit, other_expr in ((left, expr.right), (right, expr.left)):
                factor = self._const_value(other_expr)
                if factor is not None:
                    converted = self._converted(unit, factor)
                    if converted is not None:
                        return converted
            result = unit_mul(left, right)
            self._check_inversion(expr, left, right, result)
            return result
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            factor = self._const_value(expr.right)
            if factor is not None:
                deconverted = self._deconverted(left, factor)
                if deconverted is not None:
                    return deconverted
            result = unit_div(left, right)
            self._check_inversion(expr, left, right, result)
            return result
        if isinstance(op, (ast.Add, ast.Sub)):
            if not compatible(left, right):
                operation = "sum" if isinstance(op, ast.Add) else "difference"
                self._report_incompatible(operation, left, right, expr)
            if left.concrete and not left.dimensionless:
                return left
            if right.concrete and not right.dimensionless:
                return right
            return unit_join(left, right)
        if isinstance(op, ast.Mod):
            return left
        if isinstance(op, ast.Pow):
            return DIMENSIONLESS if left.dimensionless else UNKNOWN
        return UNKNOWN

    def _check_inversion(
        self, expr: ast.BinOp, left: Unit, right: Unit, result: Unit
    ) -> None:
        """A squared dimension means a rate was applied upside down."""
        if not (left.concrete and right.concrete and result.concrete):
            return
        if left.dimensionless or right.dimensionless:
            return
        if any(abs(exp) >= 2 for _, exp in result.dims):
            operation = (
                "multiplying" if isinstance(expr.op, ast.Mult) else "dividing"
            )
            self._report(
                "cost-units.rate-inversion",
                f"{operation} {left} by {right} yields {result}; a rate "
                "applied in the wrong direction (divide by a bandwidth "
                "to get seconds, never multiply)",
                expr,
            )

    # -- calls -------------------------------------------------------------

    def _call_unit(self, call: ast.Call, env: dict[str, Unit]) -> Unit:
        chain = dotted_chain(call.func)
        name = chain[-1] if chain else None
        arg_units = [self.unit_of(arg, env) for arg in call.args]
        kw_units = [
            (kw.arg, self.unit_of(kw.value, env)) for kw in call.keywords
        ]
        if name in _DIMENSIONLESS_CALLS and len(chain or []) == 1:
            return DIMENSIONLESS
        if name in _UNIT_PRESERVING_CALLS and len(chain or []) == 1:
            unit = UNKNOWN
            for arg_unit in arg_units:
                unit = (
                    arg_unit if unit is UNKNOWN else unit_join(unit, arg_unit)
                )
            return unit
        callee = self.owner.resolve(self.info, call)
        self._check_call(call, callee, arg_units, kw_units)
        if callee is not None:
            summary = self.summaries.get(callee.qualname)
            if summary is not None and summary.returns.concrete:
                return summary.returns
            declared = unit_of_name(callee.name)
            if declared is not None:
                return declared
            return UNKNOWN
        if name is not None:
            declared = unit_of_name(name)
            if declared is not None:
                return declared
        return UNKNOWN

    def _check_call(
        self,
        call: ast.Call,
        callee: FunctionInfo | None,
        arg_units: list[Unit],
        kw_units: list[tuple[str | None, Unit]],
    ) -> None:
        if self.sink is None:
            return
        mismatches = self._call_mismatches(call, callee, arg_units, kw_units)
        reported = self._report_swaps(call, mismatches)
        for index, (param, declared, value) in enumerate(mismatches):
            if index in reported:
                continue
            if self._relation(value, declared) is not None:
                self._report_incompatible(
                    f"argument {param!r}", value, declared, call
                )
            else:
                self._report(
                    "cost-units.call-argument",
                    f"argument {param!r} expects {declared} but received "
                    f"{value}",
                    call,
                )

    def _call_mismatches(
        self,
        call: ast.Call,
        callee: FunctionInfo | None,
        arg_units: list[Unit],
        kw_units: list[tuple[str | None, Unit]],
    ) -> list[tuple[str, Unit, Unit]]:
        """``(param, declared, received)`` triples that disagree."""
        slots = _signature_slots(call, callee)
        slot_units = dict(slots)
        checked: list[tuple[str, Unit, Unit | None]] = []
        for (param, declared), value in zip(slots, arg_units):
            checked.append((param, value, declared))
        for keyword, value in kw_units:
            if keyword is None:
                continue
            declared = slot_units.get(keyword)
            if declared is None and keyword not in slot_units:
                # Generalized keyword check: the keyword's own name
                # declares a unit even on unresolved constructors
                # (``RoundTimes(compute_seconds=...)``).
                declared = unit_of_name(keyword)
            checked.append((keyword, value, declared))
        mismatches: list[tuple[str, Unit, Unit]] = []
        for param, value, declared in checked:
            if declared is None or not declared.concrete:
                continue
            if not value.concrete or value.dimensionless:
                continue
            if value != declared:
                mismatches.append((param, declared, value))
        return mismatches

    def _report_swaps(
        self, call: ast.Call, mismatches: list[tuple[str, Unit, Unit]]
    ) -> set[int]:
        """Report transposed pairs: units fitting each other crosswise."""
        reported: set[int] = set()
        for i in range(len(mismatches)):
            for j in range(i + 1, len(mismatches)):
                if i in reported or j in reported:
                    continue
                p_i, d_i, v_i = mismatches[i]
                p_j, d_j, v_j = mismatches[j]
                if v_i == d_j and v_j == d_i:
                    self._report(
                        "cost-units.keyword-swap",
                        f"arguments {p_i!r} and {p_j!r} appear swapped: "
                        f"{p_i} received {v_i} (expects {d_i}) and {p_j} "
                        f"received {v_j} (expects {d_j})",
                        call,
                    )
                    reported.update({i, j})
        return reported

    # -- statements --------------------------------------------------------

    def transfer(self, stmt: ast.stmt, state: _State) -> _State:
        env = dict(state)
        if isinstance(stmt, ast.Assign):
            value_unit = self.unit_of(stmt.value, env)
            for target in stmt.targets:
                state = self._bind_target(stmt, target, stmt.value, value_unit, state)
            return state
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value_unit = self.unit_of(stmt.value, env)
            return self._bind_target(
                stmt, stmt.target, stmt.value, value_unit, state
            )
        if isinstance(stmt, ast.AugAssign):
            value_unit = self.unit_of(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                current = self.lookup(stmt.target.id, env)
                if isinstance(stmt.op, (ast.Add, ast.Sub)):
                    if current.concrete and not current.dimensionless:
                        merged = current
                    elif value_unit.concrete and not value_unit.dimensionless:
                        merged = value_unit
                    else:
                        merged = unit_join(current, value_unit)
                    return _bind(state, stmt.target.id, merged)
                if isinstance(stmt.op, ast.Mult):
                    return _bind(
                        state, stmt.target.id, unit_mul(current, value_unit)
                    )
                if isinstance(stmt.op, (ast.Div, ast.FloorDiv)):
                    return _bind(
                        state, stmt.target.id, unit_div(current, value_unit)
                    )
                return _bind(state, stmt.target.id, UNKNOWN)
            return state
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_unit = self.unit_of(stmt.iter, env)
            names = self._target_names(stmt.target)
            for name in names:
                state = _bind(
                    state, name, iter_unit if len(names) == 1 else UNKNOWN
                )
            return state
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.unit_of(item.context_expr, env)
                if item.optional_vars is not None:
                    for name in self._target_names(item.optional_vars):
                        state = _bind(state, name, UNKNOWN)
            return state
        return state

    def _bind_target(
        self,
        stmt: ast.stmt,
        target: ast.expr,
        value: ast.expr,
        value_unit: Unit,
        state: _State,
    ) -> _State:
        declared = self._declared_target_unit(stmt, target)
        if isinstance(target, ast.Name):
            if declared is not None:
                if value_unit.concrete and not value_unit.dimensionless:
                    state = _bind(state, target.id, value_unit)
                else:
                    state = _bind(state, target.id, declared)
            else:
                state = _bind(state, target.id, value_unit)
            return state
        if isinstance(target, (ast.Tuple, ast.List)):
            elements = (
                value.elts
                if isinstance(value, (ast.Tuple, ast.List))
                and len(value.elts) == len(target.elts)
                else None
            )
            env = dict(state)
            for index, element in enumerate(target.elts):
                element_unit = (
                    self.unit_of(elements[index], env)
                    if elements is not None
                    else UNKNOWN
                )
                state = self._bind_target(
                    stmt, element, value, element_unit, state
                )
            return state
        return state

    def _declared_target_unit(
        self, stmt: ast.stmt, target: ast.expr
    ) -> Unit | None:
        pragma = self.pragmas.get(stmt.lineno)
        if pragma is not None:
            return pragma
        if isinstance(target, ast.Name):
            return unit_of_name(target.id)
        if isinstance(target, ast.Attribute):
            return unit_of_name(target.attr)
        return None

    # -- the reporting pass ------------------------------------------------

    def report_statement(self, stmt: ast.stmt, state: _State) -> None:
        """Emit findings for one statement given its in-state."""
        env = dict(state)
        if isinstance(stmt, ast.Assign):
            value_unit = self.unit_of(stmt.value, env)
            for target in stmt.targets:
                self._check_binding(stmt, target, value_unit)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value_unit = self.unit_of(stmt.value, env)
            self._check_binding(stmt, stmt.target, value_unit)
            return
        if isinstance(stmt, ast.AugAssign):
            value_unit = self.unit_of(stmt.value, env)
            declared = self._declared_target_unit(stmt, stmt.target)
            if isinstance(stmt.target, ast.Name) and declared is None:
                declared = env.get(stmt.target.id)
            if (
                isinstance(stmt.op, (ast.Add, ast.Sub))
                and declared is not None
                and not compatible(declared, value_unit)
            ):
                self._report_incompatible(
                    f"augmented assignment to {self._target_label(stmt.target)}",
                    value_unit,
                    declared,
                    stmt,
                )
            return
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self.unit_of(stmt.value, env)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.unit_of(child, env)

    def _check_binding(
        self, stmt: ast.stmt, target: ast.expr, value_unit: Unit
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            return
        declared = self._declared_target_unit(stmt, target)
        if declared is None or not declared.concrete or declared.dimensionless:
            return
        if not value_unit.concrete or value_unit.dimensionless:
            return
        if value_unit != declared:
            self._report_incompatible(
                f"assignment to {self._target_label(target)}",
                value_unit,
                declared,
                stmt,
            )

    @staticmethod
    def _target_label(target: ast.expr) -> str:
        if isinstance(target, ast.Name):
            return repr(target.id)
        if isinstance(target, ast.Attribute):
            return repr(target.attr)
        return "target"


# -- project-level orchestration -------------------------------------------


class _UnitsAnalysis:
    """Shared per-run state: pragmas, constants, summaries, findings."""

    def __init__(self, project: ProjectContext):
        self.project = project
        self.graph: CallGraph = project_call_graph(project)
        self.cfgs: dict[str, CFG] = project.cache.setdefault("cfgs", {})
        self._pragmas: dict[int, dict[int, Unit]] = {}
        self._constants: dict[int, dict[str, Unit]] = {}
        self._anchors: dict[int, dict[int, int]] = {}

    # -- per-module tables -------------------------------------------------

    def pragmas_of(self, module: ModuleContext) -> dict[int, Unit]:
        cached = self._pragmas.get(id(module))
        if cached is None:
            cached = {}
            for line, comment in _comment_lines(module.lines).items():
                match = _PRAGMA.search(comment)
                if match is None:
                    continue
                unit = parse_unit(match.group("expr"))
                if unit is not None:
                    cached[line] = unit
            self._pragmas[id(module)] = cached
        return cached

    def constants_of(self, module: ModuleContext) -> dict[str, Unit]:
        """Module/class-level numeric constants and their units.

        A pragma on the constant's line wins; otherwise the name
        conventions apply; otherwise a bare numeric literal is a pure
        number (so ``RHO_CAP = 0.95`` participates in arithmetic
        without widening everything it touches to unknown).
        """
        cached = self._constants.get(id(module))
        if cached is None:
            cached = {}
            pragmas = self.pragmas_of(module)
            scopes: list[list[ast.stmt]] = [module.tree.body]
            for stmt in module.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    scopes.append(stmt.body)
            for scope in scopes:
                for stmt in scope:
                    if not isinstance(stmt, ast.Assign):
                        continue
                    value = _FunctionEvaluator._const_value(stmt.value)
                    pragma = pragmas.get(stmt.lineno)
                    for target in stmt.targets:
                        if not isinstance(target, ast.Name):
                            continue
                        if pragma is not None:
                            cached[target.id] = pragma
                        else:
                            declared = unit_of_name(target.id)
                            if declared is not None:
                                cached[target.id] = declared
                            elif value is not None:
                                cached[target.id] = DIMENSIONLESS
            self._constants[id(module)] = cached
        return cached

    def anchors_of(self, module: ModuleContext) -> dict[int, int]:
        cached = self._anchors.get(id(module))
        if cached is None:
            cached = statement_anchors(module.tree)
            self._anchors[id(module)] = cached
        return cached

    def resolve(
        self, caller: FunctionInfo, call: ast.Call
    ) -> FunctionInfo | None:
        return self.graph.resolve_call(caller, call)

    # -- the pass ----------------------------------------------------------

    def scoped_functions(self) -> list[FunctionInfo]:
        functions: list[FunctionInfo] = []
        for module in self.project.modules:
            if not module.in_scope(UNITS_SCOPE):
                continue
            functions.extend(self.graph.functions_of(module))
        return functions

    def run(self) -> list[tuple[ModuleContext, Finding]]:
        functions = self.scoped_functions()
        summaries = self._fixpoint_summaries(functions)
        results: list[tuple[ModuleContext, Finding]] = []
        for info in functions:
            evaluator = _FunctionEvaluator(self, info, summaries)
            evaluator.anchors = self.anchors_of(info.module)
            cfg = _cached_cfg(self.cfgs, info)
            in_states = solve_forward(cfg, _EnvAnalysis(evaluator))
            findings: list[Finding] = []
            evaluator.sink = findings
            for node in cfg.statement_nodes():
                state = in_states.get(node.index)
                if state is None:
                    continue
                evaluator.report_statement(node.stmt, state)
            evaluator.sink = None
            seen: set[tuple[str, int, str]] = set()
            for finding in findings:
                key = (finding.rule, finding.line, finding.message)
                if key in seen:
                    continue
                seen.add(key)
                results.append((info.module, finding))
        return results

    def _fixpoint_summaries(
        self, functions: list[FunctionInfo]
    ) -> dict[str, UnitSummary]:
        """Bounded interprocedural fixpoint over return units.

        Return units only ever move up the (finite) product lattice
        through joins, so four passes settle every realistic call
        chain; the bound is a defensive backstop against pathological
        mutual recursion, exactly like the typestate rule's.
        """
        summaries: dict[str, UnitSummary] = {}
        for _ in range(4):
            changed = False
            for info in functions:
                summary = self._summarize(info, summaries)
                if summaries.get(info.qualname) != summary:
                    summaries[info.qualname] = summary
                    changed = True
            if not changed:
                break
        return summaries

    def _summarize(
        self, info: FunctionInfo, summaries: dict[str, UnitSummary]
    ) -> UnitSummary:
        evaluator = _FunctionEvaluator(self, info, summaries)
        cfg = _cached_cfg(self.cfgs, info)
        in_states = solve_forward(cfg, _EnvAnalysis(evaluator))
        returns = UNKNOWN
        first = True
        for node in cfg.statement_nodes():
            stmt = node.stmt
            if not isinstance(stmt, ast.Return) or stmt.value is None:
                continue
            state = in_states.get(node.index)
            if state is None:
                continue
            unit = evaluator.unit_of(stmt.value, dict(state))
            returns = unit if first else unit_join(returns, unit)
            first = False
        return UnitSummary(params=evaluator.initial_state, returns=returns)


def _project_results(
    project: ProjectContext,
) -> list[tuple[ModuleContext, Finding]]:
    """The cost-units findings of one run, computed once and cached."""
    results = project.cache.get("cost-units")
    if results is None:
        results = _UnitsAnalysis(project).run()
        project.cache["cost-units"] = results
    return results


class _UnitRule(ProjectRule):
    """One sub-rule of the family; the analysis itself runs once."""

    severity = ERROR
    category = _CATEGORY

    def check(
        self, project: ProjectContext
    ) -> Iterator[tuple[ModuleContext, Finding]]:
        """Yield this sub-rule's findings over the whole project."""
        for module, finding in _project_results(project):
            if finding.rule == self.id:
                yield module, finding


@register_project_rule
class MixedArithmeticRule(_UnitRule):
    """Adding/comparing/binding quantities of incompatible dimensions."""

    id = "cost-units.mixed-arithmetic"


@register_project_rule
class CallArgumentRule(_UnitRule):
    """An argument whose unit contradicts the declared parameter unit."""

    id = "cost-units.call-argument"


@register_project_rule
class KeywordSwapRule(_UnitRule):
    """Two arguments whose units fit each other's slots crosswise."""

    id = "cost-units.keyword-swap"


@register_project_rule
class RateInversionRule(_UnitRule):
    """A product with a squared dimension: a rate applied upside down."""

    id = "cost-units.rate-inversion"


@register_project_rule
class UnconvertedRule(_UnitRule):
    """Same dimension at the wrong scale (kibibytes where bytes)."""

    id = "cost-units.unconverted"
