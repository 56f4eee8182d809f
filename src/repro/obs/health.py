"""Numerical-health records and the one record-site call, :func:`emit`.

Progress values answer *how good* a run currently is; health values
answer *why* — the solver internals the ePlace lineage treats as the
primary diagnostic surface: gradient norms per objective term,
predicted Lipschitz steps and backtrack counts, CG residuals and
restart counts, SA acceptance rates and dirty-set sizes.

Every instrumented engine iteration makes one call::

    if tracer.enabled:
        emit(phase, i, progress=values, health=hvalues)

:func:`emit` records ``<phase>`` and ``<phase>.health`` (see
:data:`HEALTH_SUFFIX`) into the thread's tracer.  Run directories
therefore carry health series in ``trace.jsonl`` and
``convergence.json`` (plot-ready), and :mod:`repro.obs.diagnose`
merges each ``.health`` phase back into its base phase.  The
engine-side guard skips building the value dicts when no tracer is
enabled.

Design rules:

* **Zero cost when off.**  Without an enabled tracer nothing is
  constructed (pinned by ``tests/obs/test_health.py``).
* **Deterministic content.**  Records carry no timestamps, so seeded
  runs record identical health series at any job count.
"""

from __future__ import annotations

from . import trace

#: trace-phase suffix under which health values are recorded into the
#: post-mortem convergence trace (``eplace.nesterov.health`` etc.)
HEALTH_SUFFIX = ".health"


def emit(phase: str, iteration: int, progress: dict, health: dict) -> None:
    """Record one engine iteration into the thread's tracer.

    Records ``progress`` under ``phase`` and ``health`` under
    ``phase + HEALTH_SUFFIX``; with no enabled tracer it returns
    before constructing anything.
    """
    tracer = trace.current()
    if tracer.enabled:
        iteration = int(iteration)
        tracer.record(phase, iteration, **progress)
        tracer.record(phase + HEALTH_SUFFIX, iteration, **health)


def base_phase(phase: str) -> str:
    """Strip the trace-side :data:`HEALTH_SUFFIX` from a phase name."""
    if phase.endswith(HEALTH_SUFFIX):
        return phase[: -len(HEALTH_SUFFIX)]
    return phase


def is_health_phase(phase: str) -> bool:
    """True for trace phases carrying recorded health series."""
    return phase.endswith(HEALTH_SUFFIX)
