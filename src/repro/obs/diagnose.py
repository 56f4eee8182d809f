"""Convergence diagnostics: verdicts over recorded convergence series.

The raw telemetry — per-iteration convergence records and their
``.health`` companions — says what happened; this module says *what it
means*.  Five
detectors run over each instrumented phase's primary metric series:

* **non-finite** — any NaN/Inf in any recorded value (the earliest
  possible warning of a numerically broken run);
* **diverging** — the metric *rose* across the whole trailing window
  and ended above the running best by more than a tolerance;
* **stalled** — the run never made meaningful progress: the best value
  improved by less than a relative tolerance over the series;
* **oscillating** — the trailing window alternates sign on significant
  deltas without improving (bouncing between attractors);
* **step-collapse** — the solver's step length fell to a vanishing
  fraction of its own maximum (the Nesterov/CG failure mode where the
  line search can no longer move).

Each phase gets one verdict (most severe detector wins, see
:data:`VERDICTS`); the per-phase verdicts plus their evidence windows
form a :class:`Diagnosis` — attached to every
:class:`~repro.placement.PlacerResult`, written into run-registry
manifests, and queryable via ``repro runs doctor``.

Determinism contract: detectors are pure functions of the recorded
series, which carry no timestamps, so a diagnosis is byte-identical
(:meth:`Diagnosis.to_json`) across repeats and job counts for the same
seeded run.

The primary metric is auto-detected per phase from
:data:`METRIC_KEYS`.  Diagnosis does not compare placement *quality*
across seeds (that is HPWL after detailed placement); it watches the
engine's own convergence criterion — for ePlace that is density overflow, not
HPWL, which legitimately *rises* from a clustered start.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from . import health
from .trace import Trace

#: JSON schema tag written with every serialised diagnosis
SCHEMA = "repro.diagnosis/1"

#: phase verdicts, healthiest first; a phase's verdict is the most
#: severe detector that fired, and a run's verdict is the most severe
#: phase
VERDICTS = (
    "insufficient-data",
    "converged",
    "stalled",
    "oscillating",
    "step-collapse",
    "diverging",
    "non-finite",
)
_SEVERITY = {name: rank for rank, name in enumerate(VERDICTS)}

#: verdicts ``repro runs doctor`` exits 0 on
HEALTHY_VERDICTS = frozenset({"insufficient-data", "converged"})

#: metric keys tried in order when picking a phase's primary series;
#: all are minimised by the engines that record them (``overflow``
#: deliberately outranks ``value``/``hpwl`` — see the module docstring)
METRIC_KEYS = ("best_cost", "cost", "overflow", "value", "hpwl")

#: the health/progress value key carrying solver step lengths
STEP_KEY = "step_length"


@dataclass(frozen=True)
class DiagnoseParams:
    """Detector thresholds (defaults tuned on the repo's smoke runs).

    ``divergence_window`` trailing deltas must all be non-negative and
    sum past ``divergence_rel_tol`` (relative) for *diverging*;
    *stalled* needs at least ``stall_points`` samples whose best value
    improved less than ``stall_rel_tol`` relative to the first;
    *oscillating* needs ``oscillation_window`` trailing samples whose
    significant deltas flip sign at least ``oscillation_flip_frac`` of
    the time with span at least ``oscillation_amp_frac`` of the metric
    scale and no improvement; *step-collapse* fires when the median of
    the last ``collapse_window`` step lengths drops below
    ``collapse_frac`` of the largest step ever taken.
    """

    min_points: int = 3
    divergence_window: int = 8
    divergence_rel_tol: float = 0.05
    stall_points: int = 6
    stall_rel_tol: float = 1e-3
    oscillation_window: int = 12
    oscillation_flip_frac: float = 0.75
    oscillation_amp_frac: float = 0.05
    collapse_window: int = 4
    collapse_frac: float = 1e-9
    metric: "str | None" = None


@dataclass
class PhaseDiagnosis:
    """One phase's verdict plus the evidence behind it."""

    phase: str
    verdict: str
    metric: str
    points: int
    checks: "dict[str, bool]" = field(default_factory=dict)
    evidence: "dict[str, Any]" = field(default_factory=dict)

    def to_dict(self) -> "dict[str, Any]":
        return {
            "phase": self.phase,
            "verdict": self.verdict,
            "metric": self.metric,
            "points": self.points,
            "checks": dict(sorted(self.checks.items())),
            "evidence": {
                key: self.evidence[key]
                for key in sorted(self.evidence)
            },
        }


@dataclass
class Diagnosis:
    """Per-phase verdicts for one run; the attachable summary object."""

    verdict: str
    phases: "dict[str, PhaseDiagnosis]" = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        """True when no detector fired anywhere."""
        return self.verdict in HEALTHY_VERDICTS

    def to_dict(self) -> "dict[str, Any]":
        return {
            "schema": SCHEMA,
            "verdict": self.verdict,
            "phases": {
                name: self.phases[name].to_dict()
                for name in sorted(self.phases)
            },
        }

    def to_json(self) -> str:
        """Canonical serialisation: byte-identical for equal content."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"),
        )

    @classmethod
    def from_dict(cls, doc: "dict[str, Any]") -> "Diagnosis":
        """Rebuild from a manifest/JSON document (lenient on extras)."""
        phases = {}
        for name, entry in (doc.get("phases") or {}).items():
            phases[name] = PhaseDiagnosis(
                phase=str(entry.get("phase", name)),
                verdict=str(entry.get("verdict", "insufficient-data")),
                metric=str(entry.get("metric", "")),
                points=int(entry.get("points", 0)),
                checks=dict(entry.get("checks") or {}),
                evidence=dict(entry.get("evidence") or {}),
            )
        return cls(
            verdict=str(doc.get("verdict", "insufficient-data")),
            phases=phases,
        )


def _overall(phases: "dict[str, PhaseDiagnosis]") -> str:
    if not phases:
        return "insufficient-data"
    return max(
        (diag.verdict for diag in phases.values()),
        key=lambda verdict: _SEVERITY.get(verdict, 0),
    )


# ---------------------------------------------------------------------------
# detectors (pure functions over one phase's series)


def _scale(values: "list[float]") -> float:
    finite = [abs(v) for v in values if math.isfinite(v)]
    return max(max(finite, default=0.0), 1e-12)


def _check_nonfinite(
    iterations: "list[int]", values: "list[float]",
    bad: "tuple[int, str] | None",
) -> "dict[str, Any] | None":
    for it, value in zip(iterations, values):
        if not math.isfinite(value):
            return {"iteration": it, "value": repr(value)}
    if bad is not None:
        return {"iteration": bad[0], "key": bad[1]}
    return None


def _check_diverging(
    iterations: "list[int]", values: "list[float]",
    params: DiagnoseParams,
) -> "dict[str, Any] | None":
    w = params.divergence_window
    n = len(values)
    if n < w + 1:
        return None
    tail = values[-(w + 1):]
    best = min(values)
    scale = _scale(values)
    rising = all(
        tail[i + 1] - tail[i] >= -1e-9 * scale for i in range(w)
    ) and (tail[-1] - tail[0]) > params.divergence_rel_tol * scale
    above = tail[-1] > best + params.divergence_rel_tol * scale
    if rising and above:
        return {
            "start_iteration": iterations[n - w - 1],
            "end_iteration": iterations[-1],
            "window_rise": tail[-1] - tail[0],
            "best": best,
            "last": tail[-1],
        }
    return None


def _check_stalled(
    iterations: "list[int]", values: "list[float]",
    params: DiagnoseParams,
) -> "dict[str, Any] | None":
    n = len(values)
    if n < params.stall_points:
        return None
    first, best = values[0], min(values)
    scale = max(abs(first), 1e-12)
    improvement = (first - best) / scale
    if improvement < params.stall_rel_tol:
        return {
            "start_iteration": iterations[0],
            "end_iteration": iterations[-1],
            "first": first,
            "best": best,
            "relative_improvement": improvement,
        }
    return None


def _check_oscillating(
    iterations: "list[int]", values: "list[float]",
    params: DiagnoseParams,
) -> "dict[str, Any] | None":
    w = params.oscillation_window
    n = len(values)
    if n < w + 1:
        return None
    tail = values[-(w + 1):]
    scale = _scale(values)
    span = max(tail) - min(tail)
    if span < params.oscillation_amp_frac * scale:
        return None
    # the oscillation must not be making progress
    prefix_best = min(values[: n - w]) if n > w else tail[0]
    if min(tail) < prefix_best - params.stall_rel_tol * scale:
        return None
    deltas = [
        tail[i + 1] - tail[i]
        for i in range(w)
        if abs(tail[i + 1] - tail[i]) > 1e-12 * scale
    ]
    if len(deltas) < 2:
        return None
    flips = sum(
        1 for a, b in zip(deltas, deltas[1:]) if (a > 0) != (b > 0)
    )
    flip_frac = flips / (len(deltas) - 1)
    if flip_frac >= params.oscillation_flip_frac:
        return {
            "start_iteration": iterations[n - w - 1],
            "end_iteration": iterations[-1],
            "flip_fraction": flip_frac,
            "span": span,
        }
    return None


def _check_step_collapse(
    steps: "list[float]", params: DiagnoseParams,
) -> "dict[str, Any] | None":
    w = params.collapse_window
    finite = [s for s in steps if math.isfinite(s)]
    if len(finite) < w:
        return None
    peak = max(finite)
    if peak <= 0.0:
        return None
    tail = sorted(finite[-w:])
    median = tail[len(tail) // 2]
    if median <= params.collapse_frac * peak:
        return {
            "peak_step": peak,
            "median_tail_step": median,
            "window": w,
        }
    return None


# ---------------------------------------------------------------------------
# per-phase series state


class _PhaseState:
    """Accumulated series for one phase."""

    __slots__ = (
        "metric", "iterations", "values", "steps", "health_steps",
        "bad",
    )

    def __init__(self) -> None:
        self.metric: "str | None" = None
        self.iterations: "list[int]" = []
        self.values: "list[float]" = []
        self.steps: "list[float]" = []
        self.health_steps: "list[float]" = []
        self.bad: "tuple[int, str] | None" = None

    def _scan(self, iteration: int, values: "dict[str, Any]") -> None:
        if self.bad is not None:
            return
        for key in sorted(values):
            value = values[key]
            if isinstance(value, (int, float)) and \
                    not math.isfinite(float(value)):
                self.bad = (iteration, key)
                return

    def add_progress(
        self, iteration: int, values: "dict[str, Any]",
        preferred: "str | None",
    ) -> None:
        self._scan(iteration, values)
        if self.metric is None:
            if preferred is not None and preferred in values:
                self.metric = preferred
            else:
                for key in METRIC_KEYS:
                    if key in values:
                        self.metric = key
                        break
        if self.metric is not None and self.metric in values:
            self.iterations.append(int(iteration))
            self.values.append(float(values[self.metric]))
        step = values.get(STEP_KEY)
        if isinstance(step, (int, float)):
            self.steps.append(float(step))

    def add_health(
        self, iteration: int, values: "dict[str, Any]",
    ) -> None:
        self._scan(iteration, values)
        step = values.get(STEP_KEY)
        if isinstance(step, (int, float)):
            self.health_steps.append(float(step))


def _diagnose_phase(
    name: str, state: _PhaseState, params: DiagnoseParams,
) -> PhaseDiagnosis:
    iterations, values = state.iterations, state.values
    steps = state.health_steps or state.steps
    checks: "dict[str, bool]" = {}
    evidence: "dict[str, Any]" = {}

    def run(check: str, found: "dict[str, Any] | None") -> None:
        checks[check] = found is not None
        if found is not None:
            evidence[check] = found

    run("non-finite",
        _check_nonfinite(iterations, values, state.bad))
    finite = [
        (it, v) for it, v in zip(iterations, values)
        if math.isfinite(v)
    ]
    fit = [it for it, _ in finite]
    fval = [v for _, v in finite]
    run("diverging", _check_diverging(fit, fval, params))
    run("step-collapse", _check_step_collapse(steps, params))
    run("oscillating", _check_oscillating(fit, fval, params))
    run("stalled", _check_stalled(fit, fval, params))

    if len(values) < params.min_points and not checks["non-finite"]:
        verdict = "insufficient-data"
    else:
        verdict = "converged"
        for name_ in ("non-finite", "diverging", "step-collapse",
                      "oscillating", "stalled"):
            if checks[name_]:
                verdict = name_
                break
    return PhaseDiagnosis(
        phase=name,
        verdict=verdict,
        metric=state.metric or "",
        points=len(values),
        checks=checks,
        evidence=evidence,
    )


# ---------------------------------------------------------------------------
# consumers: post-mortem trace, placer results


def diagnose_trace(
    trace: Trace, params: "DiagnoseParams | None" = None,
) -> Diagnosis:
    """Diagnose a post-mortem trace's convergence records.

    Health series recorded under ``<phase>.health`` are merged into
    their base phase (step lengths, NaN scanning).
    """
    params = params or DiagnoseParams()
    states: "dict[str, _PhaseState]" = {}
    for record in trace.convergence:
        base = health.base_phase(record.phase)
        state = states.get(base)
        if state is None:
            state = states[base] = _PhaseState()
        if health.is_health_phase(record.phase):
            state.add_health(record.iteration, record.values)
        else:
            state.add_progress(
                record.iteration, record.values, params.metric,
            )
    phases = {
        name: _diagnose_phase(name, state, params)
        for name, state in states.items()
    }
    return Diagnosis(verdict=_overall(phases), phases=phases)


def attach(
    result: Any, params: "DiagnoseParams | None" = None,
) -> Diagnosis:
    """Diagnose ``result.trace`` and attach the verdicts to the result.

    The hook every engine ``place()`` calls before returning: costs
    nothing on untraced runs (an empty trace diagnoses to
    ``insufficient-data`` without touching any detector).
    """
    diagnosis = diagnose_trace(result.trace, params)
    result.diagnosis = diagnosis
    return diagnosis
