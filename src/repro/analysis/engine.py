"""The pluggable rule engine behind ``graphalytics quality``.

Rules are small classes with an ``id``, ``severity`` and ``category``
registered in a module-level registry; an :class:`AnalysisConfig`
enables or disables them, and ``# quality: ignore[rule-id]`` comments
suppress individual findings at the offending line. The engine parses
each file once, collects function metrics (cyclomatic complexity,
length, documentation), and hands the module to every enabled rule.

Two rule shapes exist:

* :class:`Rule` — sees one :class:`ModuleContext` at a time (the
  original per-file shape; all the syntactic rules).
* :class:`ProjectRule` — sees a :class:`ProjectContext` holding every
  parsed module of the run at once. The interprocedural dataflow rules
  (``cost-protocol``, ``nondeterminism-flow``) are project rules: they
  build a package-wide call graph and propagate facts across function
  and module boundaries.

The engine also owns one postpass of its own, ``stale-ignore``: after
every rule has run, any ``# quality: ignore[...]`` comment that did
not suppress a single finding is itself reported. Stale suppressions
are how sanctioned exceptions rot into unreviewed blind spots, so the
gate surfaces them. A stale-ignore finding can only be silenced by a
comment that *names* ``stale-ignore`` explicitly — a bare wildcard
``# quality: ignore`` cannot vouch for itself.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.model import (
    ERROR,
    WARNING,
    FileReport,
    Finding,
    FunctionMetrics,
    QualityReport,
)

__all__ = [
    "AnalysisConfig",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "ProjectRule",
    "register_rule",
    "register_project_rule",
    "registered_rules",
    "registered_project_rules",
    "default_rules",
    "default_project_rules",
    "function_anchor",
    "statement_anchors",
    "rule_pattern_matches",
    "STALE_IGNORE_RULE",
    "analyze_source",
    "analyze_file",
    "analyze_tree",
]

#: Decision points that add one to cyclomatic complexity.
_BRANCH_NODES = (
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ExceptHandler,
    ast.With,
    ast.AsyncWith,
    ast.Assert,
    ast.IfExp,
)

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: ``# quality: ignore`` or ``# quality: ignore[rule-a, rule-b]``.
#: Anchored at the start of the comment: a suppression is the comment
#: itself, not a mention of the syntax inside one (or inside prose).
#: Entries may name a whole rule family with a trailing wildcard
#: (``cost-units.*``), hence the dot and star in the character class.
_SUPPRESSION = re.compile(
    r"^#\s*quality:\s*ignore(?:\[(?P<rules>[\w\-.*, ]*)\])?"
)

#: Sentinel meaning "every rule is suppressed on this line".
_ALL_RULES = "*"

#: Rule id of the engine-owned stale-suppression postpass.
STALE_IGNORE_RULE = "stale-ignore"


def rule_pattern_matches(pattern: str, rule_id: str) -> bool:
    """Whether a rule pattern names a rule id.

    A pattern is either an exact rule id or a family wildcard with a
    trailing ``.*`` (``cost-units.*`` matches every ``cost-units.x``
    sub-rule). Used uniformly by suppression comments, the
    ``disabled``/``enabled_only`` config sets, and the stale-ignore
    postpass, so the three never disagree about what a name covers.
    """
    if pattern == rule_id:
        return True
    return pattern.endswith(".*") and rule_id.startswith(pattern[:-1])


def function_anchor(node: ast.AST) -> int:
    """Line of the ``def``/``class`` keyword, never of a decorator.

    On CPython >= 3.8 ``node.lineno`` already points at the keyword,
    but older parsers anchored decorated definitions at the first
    decorator; taking the max over decorator end lines keeps finding
    anchors on executable code either way (and pins the contract for
    the line-accuracy tests).
    """
    line = node.lineno
    for decorator in getattr(node, "decorator_list", []):
        line = max(line, getattr(decorator, "end_lineno", decorator.lineno) + 1)
    return line


#: Expression nodes whose bodies execute lazily, detached from the
#: statement that builds them.
_DEFERRED_EXPRS = (
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def statement_anchors(nodes: Iterable[ast.AST]) -> dict[int, int]:
    """Map ``id(node)`` to the enclosing statement's line for every
    node inside a ``lambda`` or comprehension body.

    ``nodes`` is a module's nodes in ``ast.walk`` order
    (:attr:`ModuleContext.nodes`). A multi-line lambda or nested
    comprehension places its body on continuation lines; a finding
    anchored there points at a line no suppression comment or editor
    jump naturally targets. Rules look their flagged node up here
    (``anchors.get(id(node), node.lineno)``) so such findings land on
    the statement that builds the deferred expression instead.
    """
    anchors: dict[int, int] = {}
    for stmt in nodes:
        if not isinstance(stmt, ast.stmt):
            continue
        # Only the statement's own expressions: nested statements own
        # theirs, and ast.walk visits outer statements first, so the
        # setdefault keeps the innermost enclosing statement's line.
        stack = [
            child
            for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)
        ]
        while stack:
            node = stack.pop()
            if isinstance(node, _DEFERRED_EXPRS):
                for sub in ast.walk(node):
                    anchors.setdefault(id(sub), stmt.lineno)
                continue
            stack.extend(ast.iter_child_nodes(node))
    return anchors


def own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without entering nested functions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@dataclass(frozen=True)
class AnalysisConfig:
    """Configuration of one analysis run.

    ``disabled`` removes rules by id; ``enabled_only``, when set,
    restricts the run to exactly those rule ids. ``max_complexity``
    parameterizes the ``high-complexity`` rule; ``min_repetitions``
    parameterizes the artifact audit's ``single-run`` rule.
    """

    disabled: frozenset[str] = frozenset()
    enabled_only: frozenset[str] | None = None
    max_complexity: int = 25
    min_repetitions: int = 3

    def is_enabled(self, rule_id: str) -> bool:
        """Whether a rule id participates in this run.

        Both sets accept family wildcards: disabling ``cost-units.*``
        switches off every sub-rule of the family at once.
        """
        if any(rule_pattern_matches(p, rule_id) for p in self.disabled):
            return False
        if self.enabled_only is not None:
            return any(
                rule_pattern_matches(p, rule_id) for p in self.enabled_only
            )
        return True


@dataclass
class ModuleContext:
    """Everything a rule sees about one parsed module."""

    path: str
    tree: ast.Module
    lines: list[str]
    config: AnalysisConfig
    functions: list[FunctionMetrics] = field(default_factory=list)

    @property
    def posix_path(self) -> str:
        """The module path with forward slashes (for scope matching)."""
        return Path(self.path).as_posix()

    def in_scope(self, prefixes: Iterable[str]) -> bool:
        """Whether the module lies under any of the path fragments."""
        path = self.posix_path
        return any(fragment in path for fragment in prefixes)

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the module in ``ast.walk`` order, walked once
        per run for every rule that scans the whole module."""
        return list(ast.walk(self.tree))

    @cached_property
    def comments(self) -> dict[int, str]:
        """Comment text by line (:func:`_comment_lines`) for
        suppressions and unit pragmas, tokenized once per run and only
        in a module whose text holds a directive."""
        return _comment_lines(self.lines)

    @cached_property
    def anchors(self) -> dict[int, int]:
        """:func:`statement_anchors` of the module, built once per run
        for every rule that anchors findings."""
        return statement_anchors(self.nodes)


@dataclass
class ProjectContext:
    """Every parsed module of one analysis run, for project rules.

    ``cache`` is a scratch dict shared by all project rules of the
    run; the dataflow rules use it to build the package call graph
    exactly once per run instead of once per rule.
    """

    modules: list[ModuleContext]
    config: AnalysisConfig
    cache: dict = field(default_factory=dict)


class Rule:
    """Base class of all per-module analysis rules.

    Subclasses set the class attributes and implement :meth:`check`;
    registration happens through :func:`register_rule`.
    """

    id: str = ""
    severity: str = "warning"
    category: str = "bug"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(self, message: str, line: int) -> Finding:
        """Construct a finding carrying this rule's id and severity."""
        return Finding(
            rule=self.id,
            message=message,
            line=line,
            severity=self.severity,
            category=self.category,
        )


class ProjectRule(Rule):
    """Base class of whole-project (interprocedural) analysis rules.

    ``check`` receives the :class:`ProjectContext` and yields
    ``(module, finding)`` pairs so findings land in the right file's
    report (and under that file's suppression comments).
    """

    def check(self, project: ProjectContext) -> Iterator[tuple[ModuleContext, Finding]]:
        """Yield ``(module, finding)`` pairs over the whole project."""
        raise NotImplementedError


_REGISTRY: dict[str, type[Rule]] = {}
_PROJECT_REGISTRY: dict[str, type[ProjectRule]] = {}


def register_rule(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a per-module rule to the registry."""
    if not rule_class.id:
        raise ValueError(f"{rule_class.__name__} has no rule id")
    if rule_class.id in _REGISTRY or rule_class.id in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id!r}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def register_project_rule(rule_class: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding a project rule to the registry."""
    if not rule_class.id:
        raise ValueError(f"{rule_class.__name__} has no rule id")
    if rule_class.id in _REGISTRY or rule_class.id in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id!r}")
    _PROJECT_REGISTRY[rule_class.id] = rule_class
    return rule_class


def registered_rules() -> dict[str, type[Rule]]:
    """The per-module rule registry (id -> rule class), as a copy."""
    _load_builtin_rules()
    return dict(_REGISTRY)


def registered_project_rules() -> dict[str, type[ProjectRule]]:
    """The project rule registry (id -> rule class), as a copy."""
    _load_builtin_rules()
    return dict(_PROJECT_REGISTRY)


def default_rules(config: AnalysisConfig) -> list[Rule]:
    """Instantiate every registered per-module rule the config enables."""
    _load_builtin_rules()
    return [
        rule_class()
        for rule_id, rule_class in sorted(_REGISTRY.items())
        if config.is_enabled(rule_id)
    ]


def default_project_rules(config: AnalysisConfig) -> list[ProjectRule]:
    """Instantiate every registered project rule the config enables."""
    _load_builtin_rules()
    return [
        rule_class()
        for rule_id, rule_class in sorted(_PROJECT_REGISTRY.items())
        if config.is_enabled(rule_id)
    ]


def _load_builtin_rules() -> None:
    # Imported lazily so the registry self-populates regardless of
    # which analysis module the caller imported first.
    from repro.analysis import rules_bsp  # noqa: F401
    from repro.analysis import rules_determinism  # noqa: F401
    from repro.analysis import rules_generic  # noqa: F401
    from repro.analysis.dataflow import taint  # noqa: F401
    from repro.analysis.dataflow import typestate  # noqa: F401
    from repro.analysis.dataflow import units  # noqa: F401


# -- metrics ---------------------------------------------------------------


def _function_complexity(node: ast.AST, nested: set[ast.AST]) -> int:
    """Cyclomatic complexity of one function, nested functions excluded.

    Each ``ast.BoolOp`` contributes one decision per *extra* operand
    (``a or b or c`` adds 2), each ``case`` of a ``match`` statement
    contributes one (like an ``elif`` arm), and the walk stops at
    nested function boundaries: a closure's branches belong to the
    closure's own metrics, not to the enclosing function's. Every
    function definition the walk stops at is added to ``nested``.
    """
    complexity = 1
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _FUNCTION_NODES):
            nested.add(child)
            continue
        if isinstance(child, ast.Lambda):
            continue
        if isinstance(child, ast.BoolOp):
            complexity += len(child.values) - 1
        elif isinstance(child, ast.match_case):
            complexity += 1
        elif isinstance(child, _BRANCH_NODES):
            complexity += 1
        stack.extend(ast.iter_child_nodes(child))
    return complexity


def _function_metrics(nodes: list[ast.AST]) -> list[FunctionMetrics]:
    """Per-function metrics of one module, in source order.

    ``nodes`` is the module's :attr:`ModuleContext.nodes`. Sorting the
    definitions by position gives a depth-first pre-order, so every
    enclosing function is measured, and marks the definitions in its
    body as nested, before they are measured themselves.
    """
    functions = sorted(
        (node for node in nodes if isinstance(node, _FUNCTION_NODES)),
        key=lambda node: (node.lineno, node.col_offset),
    )
    nested: set[ast.AST] = set()
    metrics: list[FunctionMetrics] = []
    for node in functions:
        anchor = function_anchor(node)
        end = getattr(node, "end_lineno", anchor)
        metrics.append(
            FunctionMetrics(
                name=node.name,
                line=anchor,
                complexity=_function_complexity(node, nested),
                length=end - anchor + 1,
                has_docstring=ast.get_docstring(node) is not None,
                nested=node in nested,
            )
        )
    return metrics


# -- suppressions ----------------------------------------------------------


#: Text every directive comment contains: a ``# quality: ignore``
#: suppression (``_SUPPRESSION``) or a ``# units:`` pragma
#: (``units._PRAGMA``). A module without either has no comment any
#: reader of :attr:`ModuleContext.comments` would match.
_DIRECTIVE_TEXT = ("quality:", "units:")


def _comment_lines(lines: list[str]) -> dict[int, str]:
    """Map 1-based line numbers to genuine comment text.

    Tokenizing keeps suppression syntax *mentioned* inside string
    literals and docstrings (as in this very module) from being read
    as live suppressions — and, downstream, from being reported as
    stale ones. Falls back to raw lines if tokenization fails. A
    source without any ``_DIRECTIVE_TEXT`` is not tokenized at all:
    it maps to ``{}``.
    """
    source = "\n".join(lines)
    if not any(text in source for text in _DIRECTIVE_TEXT):
        return {}
    try:
        return {
            token.start[0]: token.string
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        }
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {
            number: line[line.index("#"):]
            for number, line in enumerate(lines, start=1)
            if "#" in line
        }


def _suppressions(comments: dict[int, str]) -> dict[int, set[str]]:
    """Map 1-based line numbers to the rule ids suppressed there."""
    suppressed: dict[int, set[str]] = {}
    for number, line in sorted(comments.items()):
        match = _SUPPRESSION.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None or not rules.strip():
            suppressed[number] = {_ALL_RULES}
        else:
            suppressed[number] = {
                rule.strip() for rule in rules.split(",") if rule.strip()
            }
    return suppressed


def _is_suppressed(finding: Finding, suppressed: dict[int, set[str]]) -> bool:
    rules = suppressed.get(finding.line)
    if rules is None:
        return False
    if finding.rule == STALE_IGNORE_RULE:
        # A suppression comment cannot wildcard-silence the report
        # that it is itself dead; only an explicit opt-out counts.
        return STALE_IGNORE_RULE in rules
    return _ALL_RULES in rules or any(
        rule_pattern_matches(pattern, finding.rule) for pattern in rules
    )


# -- analysis entry points -------------------------------------------------


class _ModuleAnalysis:
    """Mutable per-file state while a run is in flight."""

    def __init__(self, module: ModuleContext):
        self.module = module
        self.suppressions = _suppressions(module.comments)
        self.findings: list[Finding] = []
        self.suppressed_count = 0
        #: Suppression-comment lines that silenced at least one finding.
        self.used_lines: set[int] = set()

    def record(self, finding: Finding) -> None:
        """File a finding, honouring this file's suppression comments."""
        if _is_suppressed(finding, self.suppressions):
            self.suppressed_count += 1
            self.used_lines.add(finding.line)
        else:
            self.findings.append(finding)

    def run_module_rules(
        self, timings: dict[str, float] | None = None
    ) -> None:
        """Apply every enabled per-module rule.

        With ``timings``, each rule's wall-clock (including generator
        consumption) is accumulated under its rule id.
        """
        for rule in default_rules(self.module.config):
            started = time.perf_counter()
            for finding in rule.check(self.module):
                self.record(finding)
            if timings is not None:
                timings[rule.id] = (
                    timings.get(rule.id, 0.0) + time.perf_counter() - started
                )

    def run_stale_ignore_postpass(self) -> None:
        """Report suppression comments that silenced nothing this run.

        A comment is only provably stale when every rule it could
        vouch for actually ran: lines naming a disabled (or not
        registered) rule id are skipped rather than reported.
        """
        config = self.module.config
        if not config.is_enabled(STALE_IGNORE_RULE):
            return
        known = set(registered_rules()) | set(registered_project_rules())
        known.add(STALE_IGNORE_RULE)

        def vouched(pattern: str) -> bool:
            # The pattern names at least one registered, enabled rule
            # (a family wildcard counts when any member is live).
            return any(
                rule_pattern_matches(pattern, rule) and config.is_enabled(rule)
                for rule in known
            )

        for line, rules in sorted(self.suppressions.items()):
            if line in self.used_lines:
                continue
            named = rules - {_ALL_RULES}
            if any(not vouched(pattern) for pattern in named):
                continue
            label = ", ".join(sorted(named)) if named else _ALL_RULES
            self.record(
                Finding(
                    rule=STALE_IGNORE_RULE,
                    message=(
                        f"suppression '# quality: ignore[{label}]' no longer "
                        "suppresses any finding; delete it or re-justify it"
                    ),
                    line=line,
                    severity=WARNING,
                    category="maintainability",
                )
            )

    def finish(self) -> FileReport:
        """Freeze the per-file state into a :class:`FileReport`."""
        self.findings.sort(key=lambda f: (f.line, f.rule))
        lines_of_code = sum(
            1
            for line in self.module.lines
            if line.strip() and not line.strip().startswith("#")
        )
        return FileReport(
            path=self.module.path,
            lines_of_code=lines_of_code,
            functions=self.module.functions,
            findings=self.findings,
            suppressed=self.suppressed_count,
        )


def _parse_error_report(path: str, message: str, line: int) -> FileReport:
    return FileReport(
        path=path,
        findings=[
            Finding(
                rule="parse-error",
                message=message,
                line=line,
                severity=ERROR,
                category="parse",
            )
        ],
    )


def _build_module(
    source: str, path: str, config: AnalysisConfig
) -> ModuleContext | FileReport:
    """Parse one source string; a :class:`FileReport` means parse failure."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return _parse_error_report(
            path, f"syntax error: {error.msg}", error.lineno or 1
        )
    except ValueError as error:  # e.g. null bytes in the source
        return _parse_error_report(path, f"unparseable source: {error}", 1)
    module = ModuleContext(
        path=path, tree=tree, lines=source.splitlines(), config=config
    )
    module.functions = _function_metrics(module.nodes)
    return module


def _run_project_rules(
    project: ProjectContext,
    analyses: dict[int, _ModuleAnalysis],
    timings: dict[str, float] | None = None,
) -> None:
    """Run every enabled project rule, routing findings to their files."""
    by_identity = {id(a.module): a for a in analyses.values()}
    for rule in default_project_rules(project.config):
        started = time.perf_counter()
        for module, finding in rule.check(project):
            analysis = by_identity.get(id(module))
            if analysis is not None:
                analysis.record(finding)
        if timings is not None:
            timings[rule.id] = (
                timings.get(rule.id, 0.0) + time.perf_counter() - started
            )


def analyze_source(
    source: str,
    path: str = "<string>",
    config: AnalysisConfig | None = None,
) -> FileReport:
    """Analyze one Python source string.

    Project rules run too, over a single-module project — so the
    interprocedural rules still see calls that stay within the file.
    """
    config = config or AnalysisConfig()
    module = _build_module(source, path, config)
    if isinstance(module, FileReport):
        return module
    analysis = _ModuleAnalysis(module)
    analysis.run_module_rules()
    project = ProjectContext(modules=[module], config=config)
    _run_project_rules(project, {0: analysis})
    analysis.run_stale_ignore_postpass()
    return analysis.finish()


def analyze_file(
    path: str | Path, config: AnalysisConfig | None = None
) -> FileReport:
    """Analyze one Python file; unreadable files yield a parse-error."""
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return _parse_error_report(str(path), "file is not valid UTF-8", 1)
    except OSError as error:
        return _parse_error_report(str(path), f"unreadable file: {error}", 1)
    return analyze_source(source, str(path), config)


def _prepare_file(
    file_path: str,
    config: AnalysisConfig,
    timings: dict[str, float] | None = None,
) -> FileReport | _ModuleAnalysis:
    """Read, parse, and run the per-module rules over one file.

    The per-file half of :func:`analyze_tree`: everything that needs
    no sight of the other modules.
    """
    try:
        source = Path(file_path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return _parse_error_report(file_path, "file is not valid UTF-8", 1)
    except OSError as error:
        return _parse_error_report(file_path, f"unreadable file: {error}", 1)
    module = _build_module(source, file_path, config)
    if isinstance(module, FileReport):
        return module
    analysis = _ModuleAnalysis(module)
    analysis.run_module_rules(timings)
    return analysis


def analyze_tree(
    root: str | Path,
    config: AnalysisConfig | None = None,
    rule_timings: dict[str, float] | None = None,
) -> QualityReport:
    """Analyze every ``*.py`` file under a directory.

    Every file is parsed once; the per-module rules run file by file,
    then the project rules see all modules together (that is what lets
    ``cost-protocol`` and ``nondeterminism-flow`` follow calls across
    module boundaries), and finally the stale-suppression postpass
    runs with the complete used-suppression picture. Everything runs
    in this process, so each module's node list, function metrics,
    directive comments and statement anchors are built once.

    Pass a dict as ``rule_timings`` to collect per-rule wall-clock
    seconds; note the interprocedural families that share one cached
    analysis bill the whole computation to whichever member runs
    first.
    """
    config = config or AnalysisConfig()
    ordered = [
        _prepare_file(str(path), config, rule_timings)
        for path in sorted(Path(root).rglob("*.py"))
    ]
    analyses = {
        index: entry
        for index, entry in enumerate(ordered)
        if isinstance(entry, _ModuleAnalysis)
    }
    project = ProjectContext(
        modules=[a.module for a in analyses.values()], config=config
    )
    _run_project_rules(project, analyses, rule_timings)
    report = QualityReport()
    for entry in ordered:
        if isinstance(entry, _ModuleAnalysis):
            entry.run_stale_ignore_postpass()
            report.files.append(entry.finish())
        else:
            report.files.append(entry)
    return report
