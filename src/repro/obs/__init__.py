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
iteration and its health values into the thread's tracer (see
:mod:`repro.obs.health`).  The trace is the one telemetry channel:
``place --save-run`` persists it in the run registry
(:mod:`repro.obs.registry`), and fan-out sites merge worker traces
into the caller's with :meth:`Tracer.absorb`.

See :mod:`repro.obs.trace` for the zero-overhead-when-disabled design,
:mod:`repro.obs.export` for the JSONL schema and
:mod:`repro.obs.metrics` for the always-on registry benchmarks consume.
"""

from . import diagnose, env, export, health, log, memory, metrics, \
    registry, report, trace
from .diagnose import DiagnoseParams, Diagnosis, PhaseDiagnosis, \
    diagnose_trace
from .env import fingerprint, utc_timestamp
from .export import format_profile, read_jsonl, trace_records, \
    write_jsonl
from .health import emit
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
    "DiagnoseParams",
    "Diagnosis",
    "IterationRecord",
    "MemoryProfile",
    "MetricsRegistry",
    "NULL_TRACER",
    "PhaseDiagnosis",
    "REGISTRY",
    "RunRegistry",
    "RunWriter",
    "SpanRecord",
    "Stopwatch",
    "Trace",
    "Tracer",
    "configure_logging",
    "diagnose",
    "diagnose_trace",
    "emit",
    "env",
    "export",
    "fingerprint",
    "format_profile",
    "get_logger",
    "health",
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
