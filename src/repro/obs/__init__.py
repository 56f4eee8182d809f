"""Unified observability layer: tracing, convergence recording,
metrics and logging for every placement engine.

Usage::

    from repro import obs

    with obs.tracing() as tracer:
        result = repro.place(circuit, "eplace-a")
    table = obs.format_profile(result.trace, result.runtime_s)
    obs.write_jsonl(result.trace, "trace.jsonl", method=result.method)

Inside engines::

    from ..obs import emit, trace

    with trace.span("eplace.gp"):
        ...
        with trace.timer("eplace.gp.density"):
            ...
        emit("eplace.nesterov", i, progress=values, health=hvalues)

:func:`emit` is the one call per record site: it records the
iteration into the tracer and publishes it on the live bus (see
:mod:`repro.obs.health`).

See :mod:`repro.obs.trace` for the zero-overhead-when-disabled design,
:mod:`repro.obs.export` for the JSONL schema and
:mod:`repro.obs.metrics` for the always-on registry benchmarks consume.
"""

from . import diagnose, env, export, health, live, log, memory, \
    metrics, registry, report, trace
from .diagnose import (
    DiagnoseParams,
    Diagnosis,
    PhaseDiagnosis,
    StreamDiagnoser,
    diagnose_events,
    diagnose_trace,
)
from .env import fingerprint, utc_timestamp
from .export import format_profile, read_jsonl, trace_records, \
    write_jsonl
from .health import HealthSample, emit
from .live import (
    CollectingSubscriber,
    EventBus,
    PhaseEvent,
    ProgressEvent,
    ResourceSample,
    ResourceSampler,
)
from .log import configure as configure_logging
from .log import get_logger
from .memory import MemoryProfile, phase_peak, profile_memory
from .metrics import REGISTRY, MetricsRegistry, snapshot
from .registry import RunRegistry, RunWriter
from .trace import (
    NULL_TRACER,
    IterationRecord,
    SpanRecord,
    Stopwatch,
    Trace,
    Tracer,
    tracing,
)

__all__ = [
    "CollectingSubscriber",
    "DiagnoseParams",
    "Diagnosis",
    "EventBus",
    "HealthSample",
    "IterationRecord",
    "MemoryProfile",
    "MetricsRegistry",
    "NULL_TRACER",
    "PhaseDiagnosis",
    "PhaseEvent",
    "ProgressEvent",
    "REGISTRY",
    "ResourceSample",
    "ResourceSampler",
    "RunRegistry",
    "RunWriter",
    "SpanRecord",
    "Stopwatch",
    "StreamDiagnoser",
    "Trace",
    "Tracer",
    "configure_logging",
    "diagnose",
    "diagnose_events",
    "diagnose_trace",
    "emit",
    "env",
    "export",
    "fingerprint",
    "format_profile",
    "get_logger",
    "health",
    "live",
    "log",
    "memory",
    "metrics",
    "phase_peak",
    "profile_memory",
    "read_jsonl",
    "registry",
    "report",
    "snapshot",
    "trace",
    "trace_records",
    "tracing",
    "utc_timestamp",
    "write_jsonl",
]
