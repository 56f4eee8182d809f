"""Concurrency rules: lock discipline, fork safety, shared state.

The live-observability layer (PR 6) mixes daemon threads, locks,
queues and fork pools; these rules machine-check the invariants that
keep that mix deterministic and deadlock-free:

* **RPR401** — a bare ``lock.acquire()`` leaks the lock on any
  exception between acquire and release; use ``with lock:`` or a
  ``try/finally`` whose ``finally`` releases.
* **RPR402** — forking (``ProcessPoolExecutor``, ``Process``,
  ``os.fork``) while a sampler/non-daemon thread is live or a
  module-level lock may be held: the child inherits a locked mutex or
  a half-alive thread's state.  Whole-program: the fork may be many
  calls below the thread's lexical scope.
* **RPR403** — thread-target functions mutating module-level or
  closure state without holding a lock.
* **RPR404** — cycles in the lock-acquisition-order graph built from
  nested ``with``-lock regions across the call graph: two threads
  taking the same pair of locks in opposite orders is a deadlock
  waiting for the right interleaving.

The sanctioned fork guard is ``with live.suspend_samplers():`` — the
extractor marks fork primitives lexically inside it as guarded, which
is both how ``repro.parallel`` stays clean and what the runtime
sanitizer (:mod:`repro.sanitize`) enforces dynamically.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..core import Finding, GraphRule, ModuleInfo, Rule, register
from ..patterns import MUTATOR_ATTRS, THREAD_CLASS_ATTRS, is_lock_like

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph import FunctionSummary, ProjectGraph


@register
class BareAcquireRule(Rule):
    """RPR401: ``acquire()`` without ``with`` or ``try/finally``."""

    id = "RPR401"
    name = "bare-lock-acquire"
    summary = (
        "lock.acquire() outside a try/finally that releases it leaks "
        "the lock on any exception; use 'with lock:' instead"
    )
    scopes = ("repro/",)

    @staticmethod
    def _finally_releases(try_stmt: ast.Try) -> bool:
        for stmt in try_stmt.finalbody:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "release"
                    and is_lock_like(sub.func.value)
                ):
                    return True
        return False

    def _released_in_finally(
        self, module: ModuleInfo, node: ast.Call
    ) -> bool:
        """Is this acquire paired with a finally that releases a lock?

        Covers both idioms: the acquire *inside* the try body, and the
        canonical ``acquire(); try: ... finally: release()`` where the
        acquire statement immediately precedes the Try as a sibling.
        """
        stmt: ast.stmt | None = None
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.Try) and self._finally_releases(
                ancestor
            ):
                return True
            if stmt is None and isinstance(ancestor, ast.stmt):
                stmt = ancestor
        if stmt is None:
            return False
        parent = module.parent(stmt)
        if parent is None:
            return False
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, None)
            if not isinstance(block, list) or stmt not in block:
                continue
            idx = block.index(stmt)
            if idx + 1 < len(block):
                nxt = block[idx + 1]
                if isinstance(nxt, ast.Try) and self._finally_releases(
                    nxt
                ):
                    return True
        return False

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr != "acquire" or not is_lock_like(func.value):
                continue
            if self._released_in_finally(module, node):
                continue
            yield self.finding(
                module, node,
                "bare acquire() on a lock: an exception before "
                "release() deadlocks every later acquirer; use "
                "'with lock:' (or try/finally with release())",
            )


def _thread_target_names(module: ModuleInfo) -> set[str]:
    """Function/method names passed as ``Thread(target=...)``."""
    targets: set[str] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        leaf = (
            func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else None
        )
        if leaf not in THREAD_CLASS_ATTRS:
            continue
        for kw in node.keywords:
            if kw.arg != "target":
                continue
            value = kw.value
            if isinstance(value, ast.Name):
                targets.add(value.id)
            elif isinstance(value, ast.Attribute):
                targets.add(value.attr)
    return targets


def _under_lock(module: ModuleInfo, node: ast.AST) -> bool:
    """Is ``node`` lexically inside a ``with <lock-like>:`` block?"""
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if is_lock_like(item.context_expr):
                    return True
    return False


@register
class ThreadSharedMutationRule(Rule):
    """RPR403: unsynchronized shared-state writes in thread targets."""

    id = "RPR403"
    name = "thread-shared-mutation"
    summary = (
        "functions used as Thread targets must hold a lock when "
        "writing module-level or closure (global/nonlocal) state"
    )
    scopes = ("repro/",)

    def _module_level_names(self, module: ModuleInfo) -> set[str]:
        names: set[str] = set()
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                names.add(stmt.target.id)
        return names

    def _check_target(
        self,
        module: ModuleInfo,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        module_names: set[str],
    ) -> Iterator[Finding]:
        declared: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)

        def shared(name: str) -> bool:
            return name in declared or name in module_names

        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    name: str | None = None
                    if isinstance(target, ast.Name):
                        # rebinding is only shared state when declared
                        # global/nonlocal; plain names are locals
                        if target.id in declared:
                            name = target.id
                    elif isinstance(target, ast.Subscript) and (
                        isinstance(target.value, ast.Name)
                    ):
                        if shared(target.value.id):
                            name = target.value.id
                    if name is None or _under_lock(module, node):
                        continue
                    yield self.finding(
                        module, node,
                        f"thread target {func.name!r} writes shared "
                        f"state {name!r} without holding a lock; "
                        "wrap the write in 'with <lock>:'",
                    )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                receiver = node.func.value
                if (
                    isinstance(receiver, ast.Name)
                    and shared(receiver.id)
                    and node.func.attr in MUTATOR_ATTRS
                    and not _under_lock(module, node)
                ):
                    yield self.finding(
                        module, node,
                        f"thread target {func.name!r} mutates shared "
                        f"container {receiver.id!r} via "
                        f".{node.func.attr}() without holding a "
                        "lock; wrap the call in 'with <lock>:'",
                    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        targets = _thread_target_names(module)
        if not targets:
            return
        module_names = self._module_level_names(module)
        for node in ast.walk(module.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and node.name in targets:
                yield from self._check_target(
                    module, node, module_names
                )


@register
class ForkAfterThreadRule(GraphRule):
    """RPR402: process forks reachable while a thread/lock is live."""

    id = "RPR402"
    name = "fork-after-thread"
    summary = (
        "no ProcessPoolExecutor/Process/os.fork on any call path "
        "executing while a sampler/thread is live or a module-level "
        "lock is held; guard forks with live.suspend_samplers()"
    )
    scopes = ("repro/",)

    def _direct(self, fn: FunctionSummary) -> Iterator[Finding]:
        for hazard, fork, line in fn.hazard_forks:
            yield self.graph_finding(
                fn, line,
                f"fork primitive {fork} while a {hazard} may still "
                "be running; the child inherits its half-initialised "
                "state — stop it first or wrap the fork in "
                "'with live.suspend_samplers():'",
            )
        for lock, fork, line in fn.lock_held_forks:
            yield self.graph_finding(
                fn, line,
                f"fork primitive {fork} while module-level lock "
                f"{lock} is held; the child inherits a locked mutex "
                "it can never release",
            )

    def check_graph(self, graph: ProjectGraph) -> Iterator[Finding]:
        fork_sources: dict[str, tuple[str, int]] = {}
        for qual in sorted(graph.functions):
            fn = graph.functions[qual]
            unguarded = [
                (desc, line) for desc, line, guarded in fn.forks
                if not guarded
            ]
            if unguarded:
                desc, line = unguarded[0]
                fork_sources[qual] = (
                    f"fork primitive {desc}", line
                )
        reach = graph.reach(fork_sources) if fork_sources else None

        for qual in sorted(graph.functions):
            fn = graph.functions[qual]
            if not self.applies_rel(fn.rel):
                continue
            yield from self._direct(fn)
            if reach is None:
                continue
            reported: set[tuple[int, str]] = set()
            for hazard, ref in fn.hazard_calls:
                for callee in graph.resolve(ref, fn):
                    if not reach.covers(callee):
                        continue
                    key = (ref.lineno, hazard)
                    if key in reported:
                        break
                    reported.add(key)
                    chain = [
                        f"{fn.qual} ({fn.rel}:{ref.lineno})"
                    ] + reach.chain(callee)
                    yield self.graph_finding(
                        fn, ref.lineno,
                        f"call while a {hazard} is live can reach an "
                        "unguarded process fork; stop the thread "
                        "first or guard the fork site with "
                        "'with live.suspend_samplers():'",
                        chain=chain,
                    )
                    break
            for lock, module_level, ref in fn.lock_held_calls:
                if not module_level:
                    continue
                for callee in graph.resolve(ref, fn):
                    if not reach.covers(callee):
                        continue
                    key = (ref.lineno, lock)
                    if key in reported:
                        break
                    reported.add(key)
                    chain = [
                        f"{fn.qual} ({fn.rel}:{ref.lineno})"
                    ] + reach.chain(callee)
                    yield self.graph_finding(
                        fn, ref.lineno,
                        f"call while module-level lock {lock} is "
                        "held can reach a process fork; the child "
                        "inherits the locked mutex",
                        chain=chain,
                    )
                    break


@register
class LockOrderRule(GraphRule):
    """RPR404: cycles in the cross-module lock-acquisition order."""

    id = "RPR404"
    name = "lock-order-cycle"
    summary = (
        "nested with-lock regions (direct or through the call graph) "
        "must acquire locks in one global order; a cycle is a "
        "potential deadlock"
    )
    scopes = ("repro/",)

    def _edges(
        self, graph: ProjectGraph
    ) -> dict[tuple[str, str], tuple[FunctionSummary, int]]:
        edges: dict[tuple[str, str], tuple[FunctionSummary, int]] = {}
        for qual in sorted(graph.functions):
            fn = graph.functions[qual]
            for outer, inner, line in fn.lock_edges:
                edges.setdefault((outer, inner), (fn, line))
            for lock, _module_level, ref in fn.lock_held_calls:
                for callee in graph.resolve(ref, fn):
                    for inner in sorted(graph.locks_acquired(callee)):
                        if inner != lock:
                            edges.setdefault(
                                (lock, inner), (fn, ref.lineno)
                            )
        return edges

    def _sccs(
        self, adjacency: dict[str, list[str]]
    ) -> list[list[str]]:
        """Tarjan strongly-connected components (iterative)."""
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = 0

        for root in sorted(adjacency):
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, child_idx = work.pop()
                if child_idx == 0:
                    index[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                children = adjacency.get(node, [])
                for i in range(child_idx, len(children)):
                    child = children[i]
                    if child not in index:
                        work.append((node, i + 1))
                        work.append((child, 0))
                        recurse = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                if recurse:
                    continue
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        top = stack.pop()
                        on_stack.discard(top)
                        component.append(top)
                        if top == node:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return sccs

    def check_graph(self, graph: ProjectGraph) -> Iterator[Finding]:
        edges = self._edges(graph)
        adjacency: dict[str, list[str]] = {}
        for outer, inner in sorted(edges):
            adjacency.setdefault(outer, []).append(inner)
            adjacency.setdefault(inner, [])
        for component in self._sccs(adjacency):
            members = set(component)
            involved = sorted(
                (outer, inner) for outer, inner in edges
                if outer in members and inner in members
            )
            anchors = sorted(
                (fn.rel, line, outer, inner)
                for (outer, inner), (fn, line) in edges.items()
                if outer in members and inner in members
                and self.applies_rel(fn.rel)
            )
            if not anchors:
                continue
            _rel, line, outer_key, inner_key = anchors[0]
            fn = edges[(outer_key, inner_key)][0]
            chain = [
                f"{outer} -> {inner} "
                f"({edges[(outer, inner)][0].rel}:"
                f"{edges[(outer, inner)][1]})"
                for outer, inner in involved
            ]
            yield self.graph_finding(
                fn, line,
                "lock-order cycle among "
                f"{', '.join(component)}: these locks are acquired "
                "in inconsistent nesting orders, a potential "
                "deadlock; pick one global order",
                chain=chain,
            )
