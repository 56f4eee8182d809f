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
  callables missing type hints or docstrings (RPR301).

Every rule checks one module at a time; a wall-clock read or an
unseeded RNG is flagged where it is made, whichever function calls
it.  See ``docs/STATIC_ANALYSIS.md`` for the rule table.

Suppress a finding inline with ``# repro-lint: disable=RPR101`` (one
line) or ``# repro-lint: disable-file=RPR301`` (whole file); every
suppression should carry a comment stating the invariant that makes
the flagged construct safe.
"""

from . import rules  # noqa: F401  (importing registers every rule)
from .core import (
    REGISTRY,
    Finding,
    LintConfig,
    ModuleInfo,
    Rule,
    all_rules,
    lint_module,
    lint_paths,
    lint_source,
    register,
)

__all__ = [
    "Finding",
    "LintConfig",
    "ModuleInfo",
    "REGISTRY",
    "Rule",
    "all_rules",
    "lint_module",
    "lint_paths",
    "lint_source",
    "register",
    "rules",
]
