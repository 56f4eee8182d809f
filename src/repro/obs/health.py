"""Numerical-health channel: typed solver internals on the live bus.

The convergence stream (:func:`repro.obs.live.progress`) answers *how
good* a run currently is; this channel answers *why* — the solver
internals the ePlace lineage treats as the primary diagnostic surface:
gradient norms per objective term, predicted Lipschitz steps and
backtrack counts, CG residuals and restart counts, SA acceptance rates
and dirty-set sizes.  Engines publish one :class:`HealthSample` per
instrumented iteration next to each ``progress`` publication, behind
the same ``tracer.enabled or live.active()`` gate (lint rule RPR204
holds engine scopes to this pairing).

Persistence mirrors the dual-channel contract of
:mod:`repro.obs.live`: the publishing site also records the same
values into the post-mortem trace under ``<phase>.health`` (see
:data:`HEALTH_SUFFIX`), so run directories carry health series in both
``events.jsonl`` (typed, per-source) and ``convergence.json``
(plot-ready) — the streaming detectors in :mod:`repro.obs.diagnose`
consume either.

Design rules:

* **Zero cost when off.**  :func:`sample` with no active bus is one
  thread-local lookup and constructs no event object — the same
  overhead-guard budget as ``live.progress`` (pinned by
  ``tests/obs/test_live.py``).
* **Deterministic content.**  Health samples carry no timestamps;
  seeded runs publish identical health streams, so the merged stream
  is bit-identical across job counts (same contract as
  :class:`~repro.obs.live.ProgressEvent`).

Engines declare what they publish with a module-level
``HEALTH_FIELDS`` tuple (the value keys of their samples) — both
documentation and the trigger for lint rule RPR204.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import live

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


def sample(phase: str, iteration: int, **values: float) -> None:
    """Publish one :class:`HealthSample` on the active bus.

    No-op (and allocation-free: no event object is constructed) when
    no bus is active on this thread.
    """
    bus = live.current()
    if bus is None:
        return
    bus.publish(HealthSample(phase, int(iteration), values, bus.source))


def base_phase(phase: str) -> str:
    """Strip the trace-side :data:`HEALTH_SUFFIX` from a phase name."""
    if phase.endswith(HEALTH_SUFFIX):
        return phase[: -len(HEALTH_SUFFIX)]
    return phase


def is_health_phase(phase: str) -> bool:
    """True for trace phases carrying recorded health series."""
    return phase.endswith(HEALTH_SUFFIX)
