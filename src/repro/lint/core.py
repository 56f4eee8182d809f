"""Core of the project lint engine: findings, rules, module model.

The engine is a thin AST walker specialised to *this* codebase's
invariants (determinism, numerical safety, observability contract, API
hygiene) — classes of bugs a generic linter cannot know about.  Each
rule is a :class:`Rule` subclass registered with :func:`register`; the
CLI (:mod:`repro.lint.cli`) walks files, parses them once into a
:class:`ModuleInfo` and feeds that to every rule whose path scope
matches.

Suppression syntax, checked per finding line::

    risky_call()  # repro-lint: disable=RPR101
    risky_call()  # repro-lint: disable=RPR101,RPR202
    # repro-lint: disable-file=RPR301   (anywhere in the file)

Rules are scoped by path fragments relative to the scanned roots (e.g.
``repro/analytic/``), so fixture files under ``tests/`` are never
matched when linting the repository, while the test suite can still
exercise rules on synthetic sources via :func:`lint_source`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

#: matches one suppression comment; group 1 = "disable"/"disable-file",
#: group 2 = comma-separated rule ids or "all"
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)=([A-Za-z0-9_,\s]+)"
)

#: wildcard entry meaning "every rule" in a suppression set
ALL_RULES = "*"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at ``path:line:col``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """Render as the canonical ``path:line:col: RULE message`` line."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.message}"
        )

    def to_dict(self) -> dict[str, Any]:
        """Stable JSON schema used by ``--format json``."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def _parse_suppressions(
    source: str,
) -> tuple[dict[int, set[str]], set[str]]:
    """Per-line and file-level suppression sets from lint comments."""
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        for kind, ids in _SUPPRESS_RE.findall(text):
            names = {
                token.strip() for token in ids.split(",") if token.strip()
            }
            if "all" in names:
                names = {ALL_RULES}
            if kind == "disable-file":
                per_file |= names
            else:
                per_line.setdefault(lineno, set()).update(names)
    return per_line, per_file


def _import_table(tree: ast.Module) -> dict[str, str]:
    """Map local alias -> fully dotted import target.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter as pc`` ->
    ``{"pc": "time.perf_counter"}``.  Relative imports keep their bare
    module name, which is enough for the dotted-name matching the rules
    perform.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    table[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                table[alias.asname or alias.name] = target
    return table


class ModuleInfo:
    """One parsed source file plus the cheap analyses rules share."""

    def __init__(self, path: str, source: str,
                 rel: str | None = None) -> None:
        self.path = path
        self.source = source
        #: posix-style path used for rule scoping (falls back to path)
        self.rel = (rel if rel is not None else path).replace("\\", "/")
        self.tree = ast.parse(source, filename=path)
        self.line_suppressions, self.file_suppressions = (
            _parse_suppressions(source)
        )
        self.imports = _import_table(self.tree)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # -- navigation ----------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        """Syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Parents from the immediate one up to the module."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """Innermost function definition containing ``node``."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def at_module_level(self, node: ast.AST) -> bool:
        """True when no function definition encloses ``node``."""
        return self.enclosing_function(node) is None

    # -- name resolution -----------------------------------------------
    def dotted_name(self, node: ast.AST) -> str | None:
        """Resolve ``np.random.rand`` -> ``numpy.random.rand``.

        Returns None for expressions that are not plain dotted names
        (calls on call results, subscripts, ...).
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.imports.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def call_name(self, node: ast.Call) -> str | None:
        """Resolved dotted name of a call's function, if plain."""
        return self.dotted_name(node.func)

    # -- suppression ---------------------------------------------------
    def suppressed(self, rule_id: str, line: int) -> bool:
        """True when ``rule_id`` is disabled on ``line`` or file-wide."""
        if rule_id in self.file_suppressions or (
            ALL_RULES in self.file_suppressions
        ):
            return True
        names = self.line_suppressions.get(line, ())
        return rule_id in names or ALL_RULES in names


def assignment_map(
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
) -> dict[str, ast.expr]:
    """Last simple assignment per name within one scope (one level).

    Handles ``a = expr`` and parallel tuple unpacking
    ``a, b = e1, e2``; anything fancier is left unresolved, which makes
    the rules that consume this map conservative rather than wrong.
    Nested function/class scopes are not descended into.
    """
    table: dict[str, ast.expr] = {}
    stack: list[ast.AST] = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                   ast.Lambda)
        ):
            continue
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    table[target.id] = node.value
                elif isinstance(target, ast.Tuple) and isinstance(
                    node.value, ast.Tuple
                ) and len(target.elts) == len(node.value.elts):
                    for t, v in zip(target.elts, node.value.elts):
                        if isinstance(t, ast.Name):
                            table[t.id] = v
        stack.extend(ast.iter_child_nodes(node))
    return table


def contains_call(
    module: ModuleInfo, node: ast.AST, names: frozenset[str]
) -> bool:
    """True when any call inside ``node`` ends with one of ``names``.

    Matching is on the final path component (``np.clip`` and a bare
    ``clip`` both match ``"clip"``) so rules tolerate import style.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            dotted = module.call_name(sub)
            if dotted is not None and dotted.rsplit(".", 1)[-1] in names:
                return True
    return False


class Rule:
    """Base class for lint rules.

    ``scopes`` are path fragments (posix) that must appear in a
    module's scoped path for the rule to apply; ``excludes`` override
    scopes.  Subclasses set the class attributes and implement
    :meth:`check`.
    """

    id: str = ""
    name: str = ""
    summary: str = ""
    scopes: tuple[str, ...] = ("repro/",)
    excludes: tuple[str, ...] = ()

    def applies(self, module: ModuleInfo) -> bool:
        rel = module.rel
        if any(fragment in rel for fragment in self.excludes):
            return False
        return any(fragment in rel for fragment in self.scopes)

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


#: rule id -> rule instance, in registration order
REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> list[Rule]:
    """Registered rules in id order."""
    return [REGISTRY[rule_id] for rule_id in sorted(REGISTRY)]


@dataclass
class LintConfig:
    """Effective rule selection for one engine run."""

    select: frozenset[str] = frozenset()
    ignore: frozenset[str] = frozenset()

    def active(self) -> list[Rule]:
        rules = all_rules()
        if self.select:
            rules = [r for r in rules if r.id in self.select]
        return [r for r in rules if r.id not in self.ignore]


def lint_module(module: ModuleInfo, rules: Iterable[Rule]) -> list[Finding]:
    """Run ``rules`` over one parsed module, honouring suppressions."""
    findings: list[Finding] = []
    for rule in rules:
        if not rule.applies(module):
            continue
        for finding in rule.check(module):
            if not module.suppressed(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_source(
    source: str,
    rel: str,
    select: Iterable[str] = (),
    ignore: Iterable[str] = (),
) -> list[Finding]:
    """Lint an in-memory source string as if it lived at ``rel``.

    This is the test-fixture entry point: ``rel`` decides which rule
    scopes match (e.g. ``"repro/eplace/fake.py"``).
    """
    config = LintConfig(frozenset(select), frozenset(ignore))
    return lint_module(ModuleInfo(rel, source, rel=rel), config.active())


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield .py files under ``paths`` (files or directories), sorted."""
    seen: set[Path] = set()
    for entry in paths:
        root = Path(entry)
        if root.is_file():
            candidates: Iterable[Path] = [root]
        else:
            candidates = sorted(root.rglob("*.py"))
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def lint_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] = (),
    ignore: Iterable[str] = (),
) -> tuple[list[Finding], list[str]]:
    """Lint every Python file under ``paths``.

    Returns ``(findings, errors)`` where ``errors`` are human-readable
    parse failures (a syntax error is reported, not raised, so one bad
    file cannot hide findings in the rest).
    """
    rules = LintConfig(frozenset(select), frozenset(ignore)).active()
    findings: list[Finding] = []
    errors: list[str] = []
    for path in iter_python_files(paths):
        try:
            module = ModuleInfo(
                str(path), path.read_text(encoding="utf-8")
            )
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{path}: {exc}")
            continue
        findings.extend(lint_module(module, rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, errors
