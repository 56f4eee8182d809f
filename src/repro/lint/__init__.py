"""Project-specific static analysis for the repro codebase.

Usage::

    python -m repro.lint src tests            # lint, exit 1 on findings
    python -m repro.lint --list-rules         # rule catalogue
    python -m repro.lint src --select RPR001  # only some rules
    python -m repro.lint src --ignore RPR301

Rule families (ids are stable; see ``--list-rules`` for summaries):

* ``RPR0xx`` determinism — wall clocks outside ``repro.obs``
  (RPR001), global/unseeded RNG (RPR002), bare-set iteration order
  (RPR003);
* ``RPR1xx`` numerical safety — unclipped ``exp``/``log`` in the
  analytic kernels (RPR101), unguarded data-dependent denominators
  (RPR102);
* ``RPR2xx`` observability contract — engine entry points without a
  span (RPR201), ``print`` in library code (RPR202);
* ``RPR3xx`` API hygiene — public ``repro.api``/``repro.placement``
  callables missing type hints or docstrings (RPR301);
* ``RPR004``/``RPR005`` interprocedural determinism taint — public
  entry points *transitively* reaching a wall-clock read / unseeded
  RNG through the whole-program call graph (the direct call sites are
  RPR001/RPR002's job; these print the full call chain).

The whole-program rules are built on :mod:`repro.lint.graph` — a
cross-module symbol table and call graph with conservative fallback
binding for dynamic calls.  See ``docs/STATIC_ANALYSIS.md`` for the
full design.

Suppress a finding inline with ``# repro-lint: disable=RPR101`` (one
line) or ``# repro-lint: disable-file=RPR301`` (whole file); every
suppression should carry a comment stating the invariant that makes
the flagged construct safe.
"""

from . import rules  # noqa: F401  (importing registers every rule)
from .core import (
    REGISTRY,
    Finding,
    GraphRule,
    LintConfig,
    ModuleInfo,
    Rule,
    all_rules,
    lint_module,
    lint_paths,
    lint_source,
    lint_sources,
    register,
)

__all__ = [
    "Finding",
    "GraphRule",
    "LintConfig",
    "ModuleInfo",
    "REGISTRY",
    "Rule",
    "all_rules",
    "lint_module",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "register",
    "rules",
]
