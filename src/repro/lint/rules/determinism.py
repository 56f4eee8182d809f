"""Determinism rules: wall clocks, unseeded RNG, set-iteration order.

The paper's engine comparison (ePlace-A vs. SA vs. Xu ISPD'19) rests on
run-to-run reproducibility: every stochastic component must be seeded,
wall-clock reads must flow through :mod:`repro.obs` (so traces stay the
single timing source and results never depend on time), and nothing
order-dependent may iterate a bare ``set`` (hash order varies across
processes for str keys under hash randomisation).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..core import Finding, ModuleInfo, Rule, assignment_map, register

#: wall-clock reads that make runs time-dependent
WALLCLOCK = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
})

#: legacy numpy global-state RNG entry points (never allowed)
NUMPY_GLOBAL_RNG = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "exponential", "poisson", "beta",
    "binomial", "bytes", "get_state", "set_state",
})

#: stdlib ``random`` module-level functions (global-state RNG)
STDLIB_GLOBAL_RNG = frozenset({
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "normalvariate",
    "betavariate", "expovariate", "triangular", "getrandbits",
})


@register
class WallClockRule(Rule):
    """RPR001: no wall-clock reads outside ``repro.obs``."""

    id = "RPR001"
    name = "wallclock-outside-obs"
    summary = (
        "time.time/perf_counter/monotonic and datetime.now are only "
        "allowed inside repro.obs; engines must use obs spans/timers"
    )
    scopes = ("repro/",)
    excludes = ("repro/obs/",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.call_name(node)
            if dotted in WALLCLOCK:
                yield self.finding(
                    module, node,
                    f"wall-clock read {dotted}() outside repro.obs; "
                    "use obs.trace spans/timers so timing stays in the "
                    "trace and results stay time-independent",
                )


def _rng_violation(dotted: str, node: ast.Call) -> str | None:
    """Violation text for a globally-stateful/unseeded RNG call, or None.

    ``dotted`` is the resolved name of the call target.  Module-level
    seeded constructions are handled by the caller — this helper only
    flags *globally stateful or unseeded* constructs.
    """
    parts = dotted.split(".")
    if dotted.startswith("numpy.random."):
        leaf = parts[-1]
        if leaf in NUMPY_GLOBAL_RNG:
            return (
                f"global numpy RNG {dotted}(); use a seeded "
                "np.random.default_rng(seed) passed down explicitly"
            )
        if leaf == "default_rng" and not node.args and not node.keywords:
            return (
                "np.random.default_rng() without a seed is "
                "OS-entropy-seeded; pass an explicit seed"
            )
        if leaf in {"Generator", "RandomState"} and not node.args:
            return (
                f"{dotted}() without an explicit seed source; "
                "construct from a seeded SeedSequence/BitGenerator"
            )
    elif parts[0] == "random" and len(parts) == 2:
        leaf = parts[1]
        if leaf in STDLIB_GLOBAL_RNG:
            return (
                f"global stdlib RNG {dotted}(); use "
                "random.Random(seed) or np.random.default_rng(seed)"
            )
        if leaf in {"Random", "SystemRandom"} and not node.args:
            return (
                f"{dotted}() without a seed argument is "
                "entropy-seeded and non-reproducible"
            )
    return None


@register
class UnseededRngRule(Rule):
    """RPR002: no module-level or unseeded RNG in ``src/repro``."""

    id = "RPR002"
    name = "unseeded-rng"
    summary = (
        "no legacy/global RNG calls, no unseeded default_rng()/Random() "
        "anywhere, and no RNG construction at module import time"
    )
    scopes = ("repro/",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.call_name(node)
            if dotted is None:
                continue
            message = _rng_violation(dotted, node)
            if message is not None:
                yield self.finding(module, node, message)
                continue
            rng_ctor = (
                dotted in {"numpy.random.default_rng", "random.Random"}
                or dotted.startswith("numpy.random.Generator")
            )
            if rng_ctor and module.at_module_level(node):
                yield self.finding(
                    module, node,
                    f"{dotted}(...) at module level creates hidden "
                    "import-time RNG state; construct RNGs inside the "
                    "function that consumes them",
                )


#: calls through which set iteration order becomes observable output
#: (sorted/len/sum/min/max consumers are order-safe and not listed)
_ORDER_SENSITIVE_CONSUMERS = frozenset({
    "list", "tuple", "enumerate", "join", "iter",
})


def _is_set_expr(
    module: ModuleInfo, node: ast.AST, assignments: dict[str, ast.expr],
) -> bool:
    """Heuristic: does this expression evaluate to a bare set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = module.call_name(node)
        if dotted is not None and dotted.rsplit(".", 1)[-1] in {
            "set", "frozenset"
        }:
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra: a | b, a - b ... is a set if either side is
        return _is_set_expr(module, node.left, assignments) or (
            _is_set_expr(module, node.right, assignments)
        )
    if isinstance(node, ast.Name):
        value = assignments.get(node.id)
        if value is not None and not isinstance(value, ast.Name):
            return _is_set_expr(module, value, assignments)
    return False


@register
class SetIterationRule(Rule):
    """RPR003: no iteration over bare sets where order can leak."""

    id = "RPR003"
    name = "set-iteration-order"
    summary = (
        "iterating a set (for/comprehension/list()/enumerate()) feeds "
        "hash order into downstream state; sort first"
    )
    scopes = ("repro/",)

    def _check_iter(
        self,
        module: ModuleInfo,
        owner: ast.AST,
        iter_node: ast.AST,
        assignments: dict[str, ast.expr],
    ) -> Iterable[Finding]:
        if _is_set_expr(module, iter_node, assignments):
            yield self.finding(
                module, owner,
                "iteration over a bare set: order follows hash "
                "randomisation; wrap in sorted(...) before iterating",
            )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        scope_cache: dict[ast.AST, dict[str, ast.expr]] = {}

        def assignments_for(node: ast.AST) -> dict[str, ast.expr]:
            scope = module.enclosing_function(node) or module.tree
            if scope not in scope_cache:
                scope_cache[scope] = assignment_map(scope)
            return scope_cache[scope]

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iter(
                    module, node, node.iter, assignments_for(node)
                )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ):
                # only the outermost generator's source is ordered
                # output for list/generator comprehensions; set/dict
                # comprehensions re-hash anyway, so skip them
                if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                    yield from self._check_iter(
                        module, node, node.generators[0].iter,
                        assignments_for(node),
                    )
            elif isinstance(node, ast.Call):
                dotted = module.call_name(node)
                if dotted is None:
                    continue
                leaf = dotted.rsplit(".", 1)[-1]
                if leaf in _ORDER_SENSITIVE_CONSUMERS and node.args:
                    yield from self._check_iter(
                        module, node, node.args[0],
                        assignments_for(node),
                    )
