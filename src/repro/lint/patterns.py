"""Shared call-name patterns used by both per-file and graph rules.

The determinism rules (:mod:`repro.lint.rules.determinism`) and the
whole-program analyzer (:mod:`repro.lint.graph`) must agree on what
counts as a wall-clock read or an unseeded RNG construction —
otherwise the per-file rule and its interprocedural upgrade would
drift apart.  This module owns those
pattern sets and has no intra-package imports, so it can be imported
from anywhere in ``repro.lint`` without cycles.
"""

from __future__ import annotations

import ast

#: wall-clock reads that make runs time-dependent (RPR001/RPR004)
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


def classify_rng_call(dotted: str, node: ast.Call) -> "str | None":
    """Violation text for a globally-stateful/unseeded RNG call.

    ``dotted`` is the resolved dotted name of the call target; returns
    ``None`` for calls that are not RNG violations (seeded
    constructions included).
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


def classify_wallclock(dotted: str) -> "str | None":
    """Violation text for a wall-clock read, or ``None``."""
    if dotted in WALLCLOCK:
        return f"wall-clock read {dotted}()"
    return None

