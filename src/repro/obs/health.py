"""Numerical-health channel and the one record-site call, :func:`emit`.

Progress values (:class:`~repro.obs.live.ProgressEvent`) answer *how
good* a run currently is; health values answer *why* — the solver
internals the ePlace lineage treats as the primary diagnostic surface:
gradient norms per objective term, predicted Lipschitz steps and
backtrack counts, CG residuals and restart counts, SA acceptance rates
and dirty-set sizes.

Every instrumented engine iteration makes one call::

    if tracer.enabled or live.active():
        emit(phase, i, progress=values, health=hvalues)

:func:`emit` records ``<phase>`` and ``<phase>.health`` (see
:data:`HEALTH_SUFFIX`) into the thread's tracer, then publishes the
:class:`~repro.obs.live.ProgressEvent` and the :class:`HealthSample`
on the thread's bus, in that order.  Run directories therefore carry
health series in both ``events.jsonl`` (typed, per-source) and
``convergence.json`` (plot-ready), and the streaming detectors in
:mod:`repro.obs.diagnose` consume either.  The engine-side guard skips
building the value dicts when both sinks are off.

Design rules:

* **Zero cost when off.**  A sink that is off gets nothing
  constructed: no iteration record without an enabled tracer, no
  event object without an active bus (pinned by
  ``tests/obs/test_live.py``).
* **Deterministic content.**  Health samples carry no timestamps;
  seeded runs publish identical health streams, so the merged stream
  is bit-identical across job counts (same contract as
  :class:`~repro.obs.live.ProgressEvent`).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import live, trace

#: trace-phase suffix under which health values are recorded into the
#: post-mortem convergence trace (``eplace.nesterov.health`` etc.)
HEALTH_SUFFIX = ".health"


@dataclass
class HealthSample:
    """One per-iteration snapshot of solver internals.

    Shaped exactly like :class:`~repro.obs.live.ProgressEvent` — phase,
    iteration, a numeric ``values`` dict, a ``source`` task index when
    the event crossed the worker bridge — but on its own type so
    subscribers that only want convergence (progress displays) or
    only health (diagnosers) can dispatch on ``isinstance`` without
    key sniffing.
    """

    phase: str
    iteration: int
    values: dict
    source: "int | None" = None


live.register_event_type("health", HealthSample)


def emit(phase: str, iteration: int, progress: dict, health: dict) -> None:
    """Record and publish one engine iteration.

    Records ``progress`` under ``phase`` and ``health`` under
    ``phase + HEALTH_SUFFIX`` into the thread's tracer, then publishes
    a :class:`~repro.obs.live.ProgressEvent` and a
    :class:`HealthSample` on the thread's bus.  Either sink that is off
    is skipped before anything is constructed for it.
    """
    iteration = int(iteration)
    tracer = trace.current()
    if tracer.enabled:
        tracer.record(phase, iteration, **progress)
        tracer.record(phase + HEALTH_SUFFIX, iteration, **health)
    bus = live.current()
    if bus is not None:
        bus.publish(
            live.ProgressEvent(phase, iteration, progress, bus.source)
        )
        bus.publish(HealthSample(phase, iteration, health, bus.source))


def base_phase(phase: str) -> str:
    """Strip the trace-side :data:`HEALTH_SUFFIX` from a phase name."""
    if phase.endswith(HEALTH_SUFFIX):
        return phase[: -len(HEALTH_SUFFIX)]
    return phase


def is_health_phase(phase: str) -> bool:
    """True for trace phases carrying recorded health series."""
    return phase.endswith(HEALTH_SUFFIX)
