"""Whole-program symbol table and call graph over ``src/repro``.

The per-file rules in :mod:`repro.lint.rules` see one AST at a time, so
a wall-clock read or an unseeded RNG laundered through a helper in
another module is invisible to them.  This module builds the
cross-module view those bug classes need:

* **Module summaries** — each source file is distilled into a
  :class:`ModuleSummary`: its functions (module-level, methods and
  nested closures) with the calls they make and their direct
  wall-clock and RNG facts.  Summaries are plain JSON-able dicts,
  which is what makes the incremental lint cache
  (:mod:`repro.lint.cache`) sound: an unchanged file contributes its
  cached summary to the graph without being re-parsed.
* **Call binding** — import aliases are resolved to absolute dotted
  targets (relative imports included), re-exports are chased through
  package ``__init__`` alias tables, ``self.method()`` binds within
  the class, bare-name calls bind to nested/module-level functions,
  and *unresolvable* attribute calls fall back conservatively to every
  project function with that name — a dynamic call can reach anything
  plausibly named like it, so the analysis over-approximates rather
  than misses.
* **Reachability with chains** — rules query "which functions can
  reach a wall-clock read / an unseeded RNG", and every positive
  answer carries the call chain down to the offending call so findings
  are actionable, not oracular.

Known limits (documented in docs/STATIC_ANALYSIS.md): calls through
values (``fn(cb); cb()``), ``getattr`` dispatch and containers of
callables are invisible; the attr-name fallback over-approximates
instead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterable

from .patterns import classify_rng_call, classify_wallclock

#: bump when summary extraction changes shape or semantics — the
#: incremental cache includes it in its signature, so stale summaries
#: can never feed the graph
SUMMARY_VERSION = 3

#: files under these path fragments are the blessed wall-clock scope
_OBS_FRAGMENT = "repro/obs/"


# ---------------------------------------------------------------------------
# summary data model (all JSON-serialisable)


@dataclass
class CallRef:
    """One call site inside a function body.

    ``target`` is the import-resolved absolute dotted name when the
    receiver chain is a plain imported name (``trace.span`` →
    ``repro.obs.trace.span``); ``None`` for dynamic receivers.
    ``attr`` is always the final (bare) callee name.
    """

    attr: str
    target: "str | None"
    lineno: int
    self_call: bool = False
    name_call: bool = False

    def to_dict(self) -> "dict[str, Any]":
        return {
            "attr": self.attr, "target": self.target,
            "lineno": self.lineno, "self_call": self.self_call,
            "name_call": self.name_call,
        }

    @classmethod
    def from_dict(cls, data: "dict[str, Any]") -> "CallRef":
        return cls(
            attr=data["attr"], target=data["target"],
            lineno=int(data["lineno"]),
            self_call=bool(data["self_call"]),
            name_call=bool(data["name_call"]),
        )


@dataclass
class FunctionSummary:
    """Everything the graph rules need to know about one function."""

    qual: str
    name: str
    module: str
    rel: str
    path: str
    lineno: int
    cls: "str | None"
    public: bool
    calls: "list[CallRef]" = field(default_factory=list)
    #: direct wall-clock reads: (violation text, lineno)
    clock_calls: "list[tuple[str, int]]" = field(default_factory=list)
    #: direct unseeded/global RNG calls: (violation text, lineno)
    rng_calls: "list[tuple[str, int]]" = field(default_factory=list)

    def to_dict(self) -> "dict[str, Any]":
        return {
            "qual": self.qual, "name": self.name,
            "module": self.module, "rel": self.rel, "path": self.path,
            "lineno": self.lineno, "cls": self.cls,
            "public": self.public,
            "calls": [c.to_dict() for c in self.calls],
            "clock_calls": [list(t) for t in self.clock_calls],
            "rng_calls": [list(t) for t in self.rng_calls],
        }

    @classmethod
    def from_dict(cls, data: "dict[str, Any]") -> "FunctionSummary":
        return cls(
            qual=data["qual"], name=data["name"],
            module=data["module"], rel=data["rel"], path=data["path"],
            lineno=int(data["lineno"]), cls=data["cls"],
            public=bool(data["public"]),
            calls=[CallRef.from_dict(c) for c in data["calls"]],
            clock_calls=[
                (t[0], int(t[1])) for t in data["clock_calls"]
            ],
            rng_calls=[(t[0], int(t[1])) for t in data["rng_calls"]],
        )


@dataclass
class ModuleSummary:
    """One file's contribution to the project graph."""

    module: "str | None"
    rel: str
    path: str
    aliases: "dict[str, str]"
    functions: "list[FunctionSummary]"
    line_suppressions: "dict[int, set[str]]"
    file_suppressions: "set[str]"

    def to_dict(self) -> "dict[str, Any]":
        return {
            "module": self.module, "rel": self.rel, "path": self.path,
            "aliases": dict(self.aliases),
            "functions": [f.to_dict() for f in self.functions],
            "line_suppressions": {
                str(line): sorted(ids)
                for line, ids in self.line_suppressions.items()
            },
            "file_suppressions": sorted(self.file_suppressions),
        }

    @classmethod
    def from_dict(cls, data: "dict[str, Any]") -> "ModuleSummary":
        return cls(
            module=data["module"], rel=data["rel"], path=data["path"],
            aliases=dict(data["aliases"]),
            functions=[
                FunctionSummary.from_dict(f) for f in data["functions"]
            ],
            line_suppressions={
                int(line): set(ids)
                for line, ids in data["line_suppressions"].items()
            },
            file_suppressions=set(data["file_suppressions"]),
        )

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Mirror of :meth:`repro.lint.core.ModuleInfo.suppressed`."""
        if rule_id in self.file_suppressions or (
            "*" in self.file_suppressions
        ):
            return True
        names = self.line_suppressions.get(line, set())
        return rule_id in names or "*" in names


# ---------------------------------------------------------------------------
# import resolution


def module_name_for_rel(rel: str) -> "str | None":
    """Dotted module name from a scoped path, or ``None``.

    ``src/repro/obs/trace.py`` → ``repro.obs.trace``;
    ``repro/obs/__init__.py`` → ``repro.obs``.  Paths without a
    ``repro`` segment are outside the project graph.
    """
    parts = rel.replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    tail = parts[parts.index("repro"):]
    if not tail[-1].endswith(".py"):
        return None
    tail[-1] = tail[-1][:-3]
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(tail)


def _resolve_relative(
    module: str, is_package: bool, level: int, target: "str | None",
) -> str:
    """Absolute base module of a ``from ... import`` statement."""
    if level == 0:
        return target or ""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: max(0, len(parts) - (level - 1))]
    base = ".".join(parts)
    if target:
        base = f"{base}.{target}" if base else target
    return base


def absolute_import_table(
    tree: ast.Module, module: "str | None", is_package: bool,
) -> "dict[str, str]":
    """Alias → absolute dotted target, relative imports resolved."""
    table: "dict[str, str]" = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(
                module or "", is_package, node.level, node.module
            )
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = (
                    f"{base}.{alias.name}" if base else alias.name
                )
                table[alias.asname or alias.name] = target
    return table


def _call_parts(
    func: ast.expr, table: "dict[str, str]",
) -> "tuple[str | None, str | None, bool, bool]":
    """(target, attr, self_call, name_call) of a call's function."""
    if isinstance(func, ast.Name):
        return table.get(func.id), func.id, False, True
    parts: "list[str]" = []
    current: ast.expr = func
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not parts:
        return None, None, False, False
    attr = parts[0]
    if not isinstance(current, ast.Name):
        return None, attr, False, False
    root = current.id
    self_call = root in ("self", "cls") and len(parts) == 1
    base = table.get(root)
    if base is None:
        return None, attr, self_call, False
    dotted = ".".join([base] + list(reversed(parts)))
    return dotted, attr, self_call, False


# ---------------------------------------------------------------------------
# per-function lexical extraction

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                ast.Lambda)


def _own_calls(node: ast.AST) -> "Iterable[ast.Call]":
    """Calls in ``node`` without descending into nested scopes."""
    stack: "list[ast.AST]" = [node]
    while stack:
        current = stack.pop()
        if current is not node and isinstance(current, _SCOPE_NODES):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))


class _FunctionExtractor:
    """Lexical walker filling one :class:`FunctionSummary`."""

    def __init__(
        self,
        summary: FunctionSummary,
        table: "dict[str, str]",
        in_obs: bool,
    ) -> None:
        self.out = summary
        self.table = table
        self.in_obs = in_obs

    def _record_call(self, call: ast.Call) -> None:
        target, attr, self_call, name_call = _call_parts(
            call.func, self.table
        )
        lineno = getattr(call, "lineno", self.out.lineno)
        if attr is None:
            return
        if not self.in_obs and target is not None:
            clock = classify_wallclock(target)
            if clock is not None:
                self.out.clock_calls.append((clock, lineno))
        if target is not None:
            rng = classify_rng_call(target, call)
            if rng is not None:
                self.out.rng_calls.append((rng, lineno))
        self.out.calls.append(CallRef(
            attr=attr, target=target, lineno=lineno,
            self_call=self_call, name_call=name_call,
        ))

    def _visit_expr(self, node: ast.AST) -> None:
        """Record every call in an expression (no nested scopes)."""
        for call in _own_calls(node):
            self._record_call(call)

    # -- statement walk (source order, so edges keep first-call lines)
    def visit_block(self, stmts: "list[ast.stmt]") -> None:
        for stmt in stmts:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, _SCOPE_NODES):
            return  # nested defs are summarised separately
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._visit_expr(item.context_expr)
            self.visit_block(stmt.body)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr(stmt.iter)
            self._visit_expr(stmt.target)
            self.visit_block(stmt.body)
            self.visit_block(stmt.orelse)
            return
        if isinstance(stmt, (ast.While, ast.If)):
            self._visit_expr(stmt.test)
            self.visit_block(stmt.body)
            self.visit_block(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self.visit_block(stmt.body)
            for handler in stmt.handlers:
                self.visit_block(handler.body)
            self.visit_block(stmt.orelse)
            self.visit_block(stmt.finalbody)
            return
        self._visit_expr(stmt)


# ---------------------------------------------------------------------------
# module extraction


def _iter_functions(
    tree: ast.Module,
) -> "Iterable[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str | None, str]]":
    """Yield (def node, enclosing class name, qual suffix) tuples.

    The qual suffix is dotted relative to the module: ``place``,
    ``Tracer.record``, ``_cmd_place._run``.
    """
    def walk(
        node: ast.AST, cls: "str | None", prefix: str,
    ) -> "Iterable[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str | None, str]]":
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNC_NODES):
                suffix = (
                    f"{prefix}.{child.name}" if prefix else child.name
                )
                yield child, cls, suffix
                yield from walk(child, cls, suffix)
            elif isinstance(child, ast.ClassDef):
                suffix = (
                    f"{prefix}.{child.name}" if prefix
                    else child.name
                )
                yield from walk(child, child.name, suffix)
            elif not isinstance(child, ast.Lambda):
                yield from walk(child, cls, prefix)

    yield from walk(tree, None, "")


def extract_module(module: "Any") -> ModuleSummary:
    """Summarise one parsed :class:`repro.lint.core.ModuleInfo`."""
    rel = module.rel
    name = module_name_for_rel(rel)
    is_package = rel.endswith("__init__.py")
    table = absolute_import_table(module.tree, name, is_package)
    in_obs = _OBS_FRAGMENT in rel
    mod_key = name or rel

    functions: "list[FunctionSummary]" = []
    for node, cls, suffix in _iter_functions(module.tree):
        nested = "." in suffix and (
            cls is None or not suffix.startswith(f"{cls}.")
            or suffix.count(".") > 1
        )
        public = (
            not node.name.startswith("_")
            and (cls is None or not cls.startswith("_"))
            and not nested
        )
        summary = FunctionSummary(
            qual=f"{mod_key}.{suffix}",
            name=node.name,
            module=mod_key,
            rel=rel,
            path=module.path,
            lineno=node.lineno,
            cls=cls,
            public=public,
        )
        _FunctionExtractor(summary, table, in_obs).visit_block(node.body)
        functions.append(summary)

    return ModuleSummary(
        module=name,
        rel=rel,
        path=module.path,
        aliases=table,
        functions=functions,
        line_suppressions={
            line: set(ids)
            for line, ids in module.line_suppressions.items()
        },
        file_suppressions=set(module.file_suppressions),
    )


# ---------------------------------------------------------------------------
# the project graph


class Reach:
    """Reachability answer set with chain reconstruction.

    ``sources`` maps function quals to the (description, lineno) of the
    direct fact; every function that can reach a source is in
    :attr:`covered`, and :meth:`chain` rebuilds the call path down to
    the offending fact.
    """

    def __init__(
        self,
        graph: "ProjectGraph",
        sources: "dict[str, tuple[str, int]]",
    ) -> None:
        self._graph = graph
        self._facts = dict(sources)
        #: qual → (next callee qual, call line) on a shortest chain
        self._next: "dict[str, tuple[str, int]]" = {}
        self.covered: "set[str]" = set(sources)
        queue = sorted(sources)
        while queue:
            nxt: "list[str]" = []
            for qual in queue:
                for caller, line in graph.callers_of(qual):
                    if caller in self.covered:
                        continue
                    self.covered.add(caller)
                    self._next[caller] = (qual, line)
                    nxt.append(caller)
            queue = sorted(nxt)

    def covers(self, qual: str) -> bool:
        return qual in self.covered

    def path(self, qual: str) -> "list[str]":
        """Quals on one shortest chain from ``qual`` to a source."""
        quals = [qual]
        current = qual
        seen: "set[str]" = set()
        while current in self._next and current not in seen:
            seen.add(current)
            current = self._next[current][0]
            quals.append(current)
        return quals

    def chain(self, qual: str) -> "list[str]":
        """Human-readable call chain from ``qual`` to the fact."""
        parts: "list[str]" = []
        current = qual
        seen: "set[str]" = set()
        while current in self._next and current not in seen:
            seen.add(current)
            callee, line = self._next[current]
            fn = self._graph.functions.get(current)
            where = f"{fn.rel}:{line}" if fn is not None else "?"
            parts.append(f"{current} ({where})")
            current = callee
        fact = self._facts.get(current)
        fn = self._graph.functions.get(current)
        if fact is not None:
            where = f"{fn.rel}:{fact[1]}" if fn is not None else "?"
            parts.append(f"{current} ({where})")
            parts.append(fact[0])
        else:
            parts.append(current)
        return parts


class ProjectGraph:
    """Bound call graph over a set of module summaries."""

    def __init__(self, summaries: "Iterable[ModuleSummary]") -> None:
        self.modules: "dict[str, ModuleSummary]" = {}
        self.functions: "dict[str, FunctionSummary]" = {}
        self._by_attr: "dict[str, list[str]]" = {}
        self._classes: "set[str]" = set()
        for summary in summaries:
            key = summary.module or summary.rel
            self.modules[key] = summary
            for fn in summary.functions:
                self.functions[fn.qual] = fn
                self._by_attr.setdefault(fn.name, []).append(fn.qual)
                if fn.cls is not None:
                    self._classes.add(f"{fn.module}.{fn.cls}")
        for quals in self._by_attr.values():
            quals.sort()
        self._roots = tuple(sorted({
            key.split(".")[0] for key in self.modules if "." in key
        } | {key for key in self.modules if "." not in key}))
        self._edges: "dict[str, list[tuple[str, int]]]" = {}
        self._redges: "dict[str, list[tuple[str, int]]]" = {}
        self._bind_all()

    # -- binding -------------------------------------------------------
    def resolve_dotted(self, target: str) -> "str | None":
        """Canonical function qual for an absolute dotted target."""
        seen: "set[str]" = set()
        current = target
        while current not in seen:
            seen.add(current)
            if current in self.functions:
                return current
            if current in self._classes:
                init = f"{current}.__init__"
                return init if init in self.functions else None
            chased = self._chase_alias(current)
            if chased is None:
                return None
            current = chased
        return None

    def _chase_alias(self, target: str) -> "str | None":
        """Follow one re-export hop through a module alias table."""
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module_key = ".".join(parts[:cut])
            summary = self.modules.get(module_key)
            if summary is None:
                continue
            head = parts[cut]
            mapped = summary.aliases.get(head)
            if mapped is None:
                return None
            rest = parts[cut + 1:]
            return ".".join([mapped] + rest) if rest else mapped
        return None

    def resolve(
        self, ref: CallRef, caller: FunctionSummary,
    ) -> "list[str]":
        """Callee quals a call site may bind to (conservative)."""
        if ref.target is not None:
            qual = self.resolve_dotted(ref.target)
            if qual is not None:
                return [qual]
            root = ref.target.split(".")[0]
            if root not in self._roots:
                return []  # external library call
        if ref.name_call:
            for candidate in (
                f"{caller.qual}.{ref.attr}",
                f"{caller.module}.{caller.cls}.{ref.attr}"
                if caller.cls else None,
                f"{caller.module}.{ref.attr}",
            ):
                if candidate is not None and (
                    candidate in self.functions
                ):
                    return [candidate]
            return []
        if ref.self_call and caller.cls is not None:
            qual = f"{caller.module}.{caller.cls}.{ref.attr}"
            if qual in self.functions:
                return [qual]
            return []
        # dynamic receiver: conservative fallback to every project
        # function with this name
        return list(self._by_attr.get(ref.attr, []))

    def _bind_all(self) -> None:
        for qual in sorted(self.functions):
            fn = self.functions[qual]
            seen: "set[str]" = set()
            edges: "list[tuple[str, int]]" = []
            for ref in fn.calls:
                for callee in self.resolve(ref, fn):
                    if callee not in seen:
                        seen.add(callee)
                        edges.append((callee, ref.lineno))
            self._edges[qual] = edges
            for callee, line in edges:
                self._redges.setdefault(callee, []).append(
                    (qual, line)
                )
        for callers in self._redges.values():
            callers.sort()

    # -- queries -------------------------------------------------------
    def callees_of(self, qual: str) -> "list[tuple[str, int]]":
        return self._edges.get(qual, [])

    def callers_of(self, qual: str) -> "list[tuple[str, int]]":
        return self._redges.get(qual, [])

    def reach(
        self, sources: "dict[str, tuple[str, int]]",
    ) -> Reach:
        """Reachability closure over callers of ``sources``."""
        return Reach(self, sources)


def build_graph(summaries: "Iterable[ModuleSummary]") -> ProjectGraph:
    """Construct the bound project graph from module summaries."""
    return ProjectGraph(summaries)
