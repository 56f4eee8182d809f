"""Placement-as-a-service: an async job API over the repro engines.

A stdlib-only HTTP/JSON service (``repro serve``) that queues
placement requests, executes them in forked worker processes through
:mod:`repro.parallel`, answers a repeat of queued, running or
retained finished work with the original job, streams each job's
live telemetry as NDJSON, and finalizes every execution into the
persistent run registry so ``repro runs doctor|report|compare`` treat
service output exactly like local ``--save-run`` runs.

Layout:

- :mod:`repro.service.protocol` — request parsing, job states, and
  the sha256 fingerprint (circuit name + engine + resolved params +
  seed) that keys the dedupe index;
- :mod:`repro.service.queue` — job records and the bounded FIFO;
- :mod:`repro.service.app` — the service core, worker pool, timeout
  watchdog, and the HTTP shim.

See docs/SERVICE.md for the API reference and the job lifecycle
state machine.
"""

from .app import (
    ROUTES,
    PlacementService,
    ServiceConfig,
    make_server,
    serve,
)
from .protocol import (
    CANCELLED,
    DONE,
    EVICTED,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobRequest,
    ProtocolError,
    build_place_kwargs,
    engine_params_doc,
    fingerprint_request,
    parse_job_request,
    resolve_circuit,
)
from .queue import Job, JobQueue, QueueFull

__all__ = [
    "CANCELLED",
    "DONE",
    "EVICTED",
    "FAILED",
    "JOB_STATES",
    "Job",
    "JobQueue",
    "JobRequest",
    "PlacementService",
    "ProtocolError",
    "QUEUED",
    "QueueFull",
    "ROUTES",
    "RUNNING",
    "ServiceConfig",
    "TERMINAL_STATES",
    "build_place_kwargs",
    "engine_params_doc",
    "fingerprint_request",
    "make_server",
    "parse_job_request",
    "resolve_circuit",
    "serve",
]
