"""Observability-contract rules.

PR 1 established the contract: every public engine entry point runs
under a span (so end-to-end traces are never blind to a phase) and all
diagnostics flow through ``repro.obs.log`` — ``print`` bypasses both
the logging hierarchy and the trace.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, ModuleInfo, Rule, register

#: packages whose PlacerResult-returning entry points must open spans.
_ENGINE_SCOPES = (
    "repro/eplace/",
    "repro/xu_ispd19/",
    "repro/annealing/",
    "repro/legalize/",
)


def _returns_placer_result(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> bool:
    """True when the return annotation names ``PlacerResult``."""
    ann = func.returns
    if ann is None:
        return False
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return "PlacerResult" in ann.value
    for node in ast.walk(ann):
        if isinstance(node, ast.Name) and node.id == "PlacerResult":
            return True
        if isinstance(node, ast.Attribute) and (
            node.attr == "PlacerResult"
        ):
            return True
    return False


def _opens_span(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Does the body contain ``with ...span(...)``?"""
    for node in ast.walk(func):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            ctx = item.context_expr
            if isinstance(ctx, ast.Call):
                target = ctx.func
                if isinstance(target, ast.Attribute) and (
                    target.attr == "span"
                ):
                    return True
                if isinstance(target, ast.Name) and target.id == "span":
                    return True
    return False


def _called_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Unqualified names of everything the function calls."""
    names: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


@register
class SpanContractRule(Rule):
    """RPR201: engine entry points must run under a span."""

    id = "RPR201"
    name = "entry-point-span"
    summary = (
        "public module-level functions returning PlacerResult in the "
        "engine packages must open an obs span (directly or via a "
        "same-module callee)"
    )
    scopes = _ENGINE_SCOPES

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        # every function/method in the module, by unqualified name;
        # the transitive closure below follows same-module calls so an
        # entry point may delegate (eplace_global -> EPlacer.place)
        defs: list[ast.FunctionDef | ast.AsyncFunctionDef] = [
            node for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        spans = {d: _opens_span(d) for d in defs}
        by_name: dict[str, list[ast.AST]] = {}
        for d in defs:
            by_name.setdefault(d.name, []).append(d)

        def reaches_span(
            func: ast.FunctionDef | ast.AsyncFunctionDef,
            seen: set[ast.AST],
        ) -> bool:
            if spans[func]:
                return True
            seen.add(func)
            for name in _called_names(func):
                for callee in by_name.get(name, ()):
                    if callee not in seen and reaches_span(
                        callee, seen  # type: ignore[arg-type]
                    ):
                        return True
            return False

        for stmt in module.tree.body:
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if stmt.name.startswith("_"):
                continue
            if not _returns_placer_result(stmt):
                continue
            if not reaches_span(stmt, set()):
                yield self.finding(
                    module, stmt,
                    f"engine entry point {stmt.name}() returns "
                    "PlacerResult but never opens an obs span; wrap "
                    "the flow in `with tracer.span(...)`",
                )


@register
class NoPrintRule(Rule):
    """RPR202: no ``print`` in library code."""

    id = "RPR202"
    name = "no-print"
    summary = (
        "print() bypasses the obs logging hierarchy; use "
        "repro.obs.log.get_logger(...) instead"
    )
    scopes = ("repro/",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    module, node,
                    "print() in src/repro; route diagnostics through "
                    "repro.obs.log.get_logger(__name__)",
                )
