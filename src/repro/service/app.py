"""Placement-as-a-service: the HTTP application and worker pool.

Stdlib only: :class:`http.server.ThreadingHTTPServer` accepts
connections on daemon threads, a fixed pool of daemon worker threads
drains the bounded FIFO queue, and each job executes in a *forked
child process* through :func:`repro.parallel.parallel_map_live` with
``always_fork=True`` — CPU-bound engine code never runs on a server
thread, the fork happens under the sanctioned
``live.suspend_samplers()`` discipline inside ``repro.parallel``, and
the child's live events stream back over the bridge into the job's
buffer (served as NDJSON) and the run registry.

Request flow (see docs/SERVICE.md for the full state machine)::

    POST /jobs
      -> dedupe: same fingerprint queued, running or retained done?
                 answer with that job (200, deduped).
      -> queue:  full?  503 + Retry-After.  else enqueue (202).

Every *executed* job is finalized into the persistent run registry
(:mod:`repro.obs.registry`), so ``repro runs doctor|report|compare``
work identically on service output and local ``--save-run`` runs.
Deduped submissions create **no** new registry run — one execution,
one run directory.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..api import place
from ..circuits import make
from ..obs import tracing
from ..obs.live import EventBus
from ..obs.log import get_logger
from ..obs.registry import RunRegistry
from ..obs.trace import Stopwatch
from ..parallel import CancelledTask, parallel_map_live
from ..placement import PlacerResult
from ..placement.io import placement_to_dict
from .protocol import (
    CANCELLED,
    DONE,
    EVICTED,
    FAILED,
    RESULT_SCHEMA,
    RUNNING,
    JobRequest,
    ProtocolError,
    build_place_kwargs,
    fingerprint_request,
    parse_job_request,
)
from .queue import Job, JobQueue, QueueFull

logger = get_logger("service.app")

#: every route the server registers: (HTTP method, path template,
#: one-line description).  docs/SERVICE.md must document each entry —
#: a test enumerates this table against the doc.
ROUTES: "tuple[tuple[str, str, str], ...]" = (
    ("POST", "/jobs",
     "submit a placement job (dedupe, then queue)"),
    ("GET", "/jobs/<id>",
     "fetch one job's full record (state, result, run_id)"),
    ("GET", "/jobs/<id>/events",
     "stream the job's live telemetry as NDJSON until it finishes"),
    ("DELETE", "/jobs/<id>",
     "cancel a queued/running job, or evict a finished record"),
    ("GET", "/healthz", "liveness probe with queue/worker gauges"),
    ("GET", "/stats", "service counters and configuration"),
)

#: schema tag on /stats documents
STATS_SCHEMA = "repro.service.stats/1"

#: schema tag on /healthz documents
HEALTH_SCHEMA = "repro.service.health/1"

#: schema tag on error response bodies
ERROR_SCHEMA = "repro.service.error/1"

#: terminal job records kept before the oldest is evicted; this also
#: bounds the done jobs the fingerprint index can answer from
RETAIN_JOBS = 256


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`PlacementService` instance."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_depth: int = 16
    runs_root: "str | None" = None
    #: default per-job wall-time budget (requests may set their own)
    timeout_s: "float | None" = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.workers}"
            )


def _job_worker(
    payload: "tuple[str, str, int, dict[str, Any]]",
) -> PlacerResult:
    """Forked-child body: one traced placement run.

    Module-level so the fork bridge can reference it; runs under its
    own tracer so the parent can persist the trace into the registry.
    Building the kwargs through the same protocol helper the
    fingerprint uses guarantees a service execution is bit-identical
    to a direct :func:`repro.api.place` call with the same request.
    """
    circuit_name, method, seed, params = payload
    request = JobRequest(
        circuit=circuit_name, method=method, seed=seed, params=params
    )
    kwargs = build_place_kwargs(request)
    circuit = make(circuit_name)
    with tracing():
        return place(circuit, method, **kwargs)


class PlacementService:
    """The service core: queue, worker pool, dedupe index, registry.

    HTTP-free by design — every endpoint maps to one method returning
    ``(status_code, document, extra_headers)``, so the whole protocol
    surface is unit-testable without a socket and the handler class
    below stays a thin shim.
    """

    #: watchdog poll interval for per-job timeouts
    WATCHDOG_INTERVAL_S = 0.1

    def __init__(self, config: "ServiceConfig | None" = None) -> None:
        self.config = config or ServiceConfig()
        self.queue = JobQueue(self.config.queue_depth)
        self.registry = RunRegistry(self.config.runs_root)
        self._lock = threading.Lock()
        self._jobs: "dict[str, Job]" = {}
        #: fingerprint -> queued, running or retained done job; failed,
        #: cancelled and evicted jobs leave it, so repeats re-execute
        self._by_fingerprint: "dict[str, Job]" = {}
        #: jobs currently executing, for the timeout watchdog
        self._running: "set[Job]" = set()
        #: terminal job ids in completion order, for eviction
        self._finished: "deque[str]" = deque()
        #: evicted ids still answering GET with 410
        self._tombstones: "deque[str]" = deque(maxlen=4096)
        self._next_id = 0
        self._uptime = Stopwatch()
        self._shutdown = threading.Event()
        self._threads: "list[threading.Thread]" = []
        self.stats: "dict[str, int]" = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "timeouts": 0,
            "coalesced": 0,
            "rejected_queue_full": 0,
            "evicted": 0,
        }

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn the worker pool and the timeout watchdog (daemons)."""
        if self._threads:
            return
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        watchdog = threading.Thread(
            target=self._watchdog_loop,
            name="repro-service-watchdog",
            daemon=True,
        )
        watchdog.start()
        self._threads.append(watchdog)
        logger.info(
            "service started: %d workers, queue depth %d",
            self.config.workers, self.config.queue_depth,
        )

    def stop(self) -> None:
        """Stop accepting queue pops and join the pool."""
        self._shutdown.set()
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []

    # -- endpoint: POST /jobs ------------------------------------------
    def submit(
        self, doc: Any
    ) -> "tuple[int, dict[str, Any], dict[str, str]]":
        """Handle one submission; returns (status, body, headers)."""
        try:
            request = parse_job_request(doc)
            fingerprint = fingerprint_request(request)
        except ProtocolError as exc:
            return 400, _error_doc(str(exc)), {}
        with self._lock:
            existing = self._by_fingerprint.get(fingerprint)
            if existing is not None:
                with existing.cond:
                    existing.coalesced += 1
                self.stats["coalesced"] += 1
                doc = existing.to_doc()
                doc["deduped"] = True
                return 200, doc, {
                    "Location": f"/jobs/{existing.job_id}"
                }
            job = Job(self._make_id(fingerprint), request, fingerprint)
            try:
                self.queue.put(job)
            except QueueFull as exc:
                self.stats["rejected_queue_full"] += 1
                backlog = self.queue.depth + len(self._running)
                return 503, _error_doc(str(exc)), {
                    "Retry-After": str(max(1, 2 * max(1, backlog)))
                }
            self._jobs[job.job_id] = job
            self._by_fingerprint[fingerprint] = job
            self.stats["submitted"] += 1
        logger.info(
            "job %s queued: %s/%s seed=%d",
            job.job_id, request.circuit, request.method, request.seed,
        )
        return 202, job.to_doc(), {
            "Location": f"/jobs/{job.job_id}"
        }

    # -- endpoint: GET /jobs/<id> --------------------------------------
    def job_doc(
        self, job_id: str
    ) -> "tuple[int, dict[str, Any], dict[str, str]]":
        """The job record, a 410 tombstone, or a 404."""
        job = self.get_job(job_id)
        if job is None:
            return self._missing(job_id)
        return 200, job.to_doc(), {}

    def get_job(self, job_id: str) -> "Job | None":
        """The live job object (for event streaming), or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    # -- endpoint: DELETE /jobs/<id> -----------------------------------
    def cancel(
        self, job_id: str
    ) -> "tuple[int, dict[str, Any], dict[str, str]]":
        """Cancel a live job; evict a terminal record."""
        job = self.get_job(job_id)
        if job is None:
            return self._missing(job_id)
        if self.queue.remove(job):
            # still queued, so no worker will ever see it: settle here
            self._settle(job, CANCELLED, ("cancelled",))
            logger.info("job %s cancelled while queued", job.job_id)
            return 200, job.to_doc(), {}
        if job.request_cancel():
            # claimed by a worker, which settles it as cancelled
            logger.info("job %s cancellation requested", job.job_id)
            return 200, job.to_doc(), {}
        # terminal record: DELETE evicts it
        with self._lock:
            if job_id in self._finished:
                self._finished.remove(job_id)
            self._evict_locked(job_id)
        return 200, {
            "schema": ERROR_SCHEMA,
            "id": job_id,
            "state": EVICTED,
        }, {}

    # -- endpoints: GET /healthz, GET /stats ---------------------------
    def health_doc(
        self,
    ) -> "tuple[int, dict[str, Any], dict[str, str]]":
        """Liveness probe body."""
        return 200, {
            "schema": HEALTH_SCHEMA,
            "status": "ok",
            "workers": self.config.workers,
            "queued": len(self.queue),
            "running": self._running_count(),
            "queue_depth": self.config.queue_depth,
        }, {}

    def stats_doc(
        self,
    ) -> "tuple[int, dict[str, Any], dict[str, str]]":
        """Counters + configuration snapshot."""
        with self._lock:
            counters = dict(self.stats)
            retained = len(self._jobs)
        doc: "dict[str, Any]" = {
            "schema": STATS_SCHEMA,
            "uptime_s": self._uptime.elapsed(),
            "queued": len(self.queue),
            "running": self._running_count(),
            "jobs_retained": retained,
            "config": {
                "workers": self.config.workers,
                "queue_depth": self.config.queue_depth,
                "timeout_s": self.config.timeout_s,
            },
        }
        doc.update(counters)
        return 200, doc, {}

    # -- worker pool ---------------------------------------------------
    def _worker_loop(self) -> None:
        """Daemon worker body: drain the queue until shutdown."""
        while not self._shutdown.is_set():
            job = self.queue.get(timeout=0.5)
            if job is None:
                continue
            if not job.mark_running():
                # DELETE landed between the pop and the start
                self._settle(job, CANCELLED, ("cancelled",))
                continue
            with self._lock:
                self._running.add(job)
            try:
                self._execute(job)
            except Exception as exc:  # the worker must outlive a bad job
                logger.exception("job %s crashed", job.job_id)
                self._settle(job, FAILED, ("failed",),
                             error=f"internal error: {exc}")

    def _execute(self, job: Job) -> None:
        """Run one job in a forked child and finalize its registry run."""
        request = job.request
        bus = EventBus()
        bus.subscribe(job.publish)
        writer = self.registry.create(
            "service",
            f"{request.circuit}:{request.method}",
            config={
                "circuit": request.circuit,
                "method": request.method,
                "seed": request.seed,
                "params": dict(request.params),
                "fingerprint": job.fingerprint,
                "job_id": job.job_id,
            },
        )
        bus.subscribe(writer.event_subscriber())
        payload = (
            request.circuit, request.method, request.seed,
            dict(request.params),
        )
        try:
            raw = parallel_map_live(
                _job_worker, [payload], jobs=1, bus=bus,
                handle_ready=job.bind_handle, always_fork=True,
            )
        except RuntimeError as exc:
            writer.finalize(status="failed")
            self._settle(job, FAILED, ("failed",), error=str(exc),
                         run_id=writer.run_id)
            logger.warning("job %s failed: %s", job.job_id, exc)
            return
        item = raw[0]
        if isinstance(item, CancelledTask):
            if job.timed_out:
                writer.finalize(status="failed")
                timeout = job.effective_timeout_s(self.config.timeout_s)
                self._settle(
                    job, FAILED, ("failed", "timeouts"),
                    error=(
                        f"timed out after {timeout}s "
                        f"at {item.phase}[{item.iteration}]"
                    ),
                    run_id=writer.run_id,
                )
                logger.warning("job %s timed out", job.job_id)
            else:
                writer.finalize(status="cancelled")
                self._settle(job, CANCELLED, ("cancelled",),
                             run_id=writer.run_id)
                logger.info("job %s cancelled mid-run", job.job_id)
            return
        result: PlacerResult = item
        metrics = result.metrics()
        writer.write_trace(
            result.trace,
            method=result.method,
            circuit=request.circuit,
            runtime_s=result.runtime_s,
        )
        writer.finalize(metrics=dict(metrics))
        doc: "dict[str, Any]" = {
            "schema": RESULT_SCHEMA,
            "circuit": request.circuit,
            "method": request.method,
            "seed": request.seed,
            "fingerprint": job.fingerprint,
            "placement": placement_to_dict(result.placement),
            "metrics": {
                key: float(value) for key, value in metrics.items()
            },
            "run_id": writer.run_id,
        }
        self._settle(job, DONE, ("completed",), result=doc,
                     run_id=writer.run_id)
        logger.info(
            "job %s done: hpwl=%.2f run=%s",
            job.job_id, metrics.get("hpwl", float("nan")),
            writer.run_id,
        )

    def _watchdog_loop(self) -> None:
        """Cancel running jobs that exceed their wall-time budget."""
        while not self._shutdown.wait(self.WATCHDOG_INTERVAL_S):
            with self._lock:
                running = list(self._running)
            for job in running:
                timeout = job.effective_timeout_s(
                    self.config.timeout_s
                )
                if timeout is None:
                    continue
                with job.cond:
                    expired = (
                        job.state == RUNNING
                        and job.stopwatch is not None
                        and job.stopwatch.elapsed() > timeout
                        and not job.timed_out
                    )
                    if expired:
                        job.timed_out = True
                        handle = job.handle
                if expired and handle is not None:
                    handle.cancel(0)
                    logger.warning(
                        "job %s exceeded %.1fs; cancelling",
                        job.job_id, timeout,
                    )

    # -- internals -----------------------------------------------------
    def _running_count(self) -> int:
        with self._lock:
            return len(self._running)

    def _make_id(self, fingerprint: str) -> str:
        """Next job id (caller holds the service lock)."""
        self._next_id += 1
        return f"job-{self._next_id:06d}-{fingerprint[:8]}"

    def _missing(
        self, job_id: str
    ) -> "tuple[int, dict[str, Any], dict[str, str]]":
        """410 for an evicted id, 404 for one never issued."""
        with self._lock:
            evicted = job_id in self._tombstones
        if evicted:
            return 410, {
                "schema": ERROR_SCHEMA,
                "id": job_id,
                "state": EVICTED,
                "error": "job record was evicted",
            }, {}
        return 404, _error_doc(f"unknown job {job_id!r}"), {}

    def _settle(
        self,
        job: Job,
        state: str,
        counters: "tuple[str, ...]",
        **fields: Any,
    ) -> None:
        """Enter a terminal state and update every index in one step.

        Holding the service lock across the transition means no
        submission can ever be deduped onto a failed or cancelled job.
        """
        with self._lock:
            job.finish(state, **fields)
            for counter in counters:
                self.stats[counter] += 1
            self._running.discard(job)
            if state != DONE:
                self._unindex_locked(job)
            self._finished.append(job.job_id)
            while len(self._finished) > RETAIN_JOBS:
                self._evict_locked(self._finished.popleft())

    def _evict_locked(self, job_id: str) -> None:
        """Drop a terminal record, leaving a tombstone (lock held)."""
        job = self._jobs.pop(job_id, None)
        if job is None:
            return
        self._unindex_locked(job)
        self._tombstones.append(job_id)
        self.stats["evicted"] += 1

    def _unindex_locked(self, job: Job) -> None:
        if self._by_fingerprint.get(job.fingerprint) is job:
            del self._by_fingerprint[job.fingerprint]


def _error_doc(message: str) -> "dict[str, Any]":
    return {"schema": ERROR_SCHEMA, "error": message}


# ---------------------------------------------------------------------------
# HTTP shim


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP adapter over :class:`PlacementService` methods."""

    #: bound by :func:`make_server`
    service: PlacementService
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # BaseHTTPRequestHandler logs to stderr by default; route through
    # the repro logging hierarchy instead (RPR202 discipline)
    def log_message(self, format: str, *args: Any) -> None:
        logger.debug("http: " + format, *args)

    def _send_json(
        self,
        status: int,
        doc: "dict[str, Any]",
        headers: "dict[str, str] | None" = None,
    ) -> None:
        body = json.dumps(doc, sort_keys=True, default=float)
        payload = (body + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            return None

    # -- verbs ---------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path.rstrip("/") != "/jobs":
            self._send_json(404, _error_doc("unknown endpoint"))
            return
        doc = self._read_body()
        if doc is None:
            self._send_json(
                400, _error_doc("request body must be JSON")
            )
            return
        status, body, headers = self.service.submit(doc)
        self._send_json(status, body, headers)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(*self.service.health_doc())
            return
        if path == "/stats":
            self._send_json(*self.service.stats_doc())
            return
        parts = path.strip("/").split("/")
        if len(parts) == 2 and parts[0] == "jobs":
            self._send_json(*self.service.job_doc(parts[1]))
            return
        if (
            len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "events"
        ):
            self._stream_events(parts[1])
            return
        self._send_json(404, _error_doc("unknown endpoint"))

    def do_DELETE(self) -> None:  # noqa: N802 (http.server API)
        parts = self.path.rstrip("/").strip("/").split("/")
        if len(parts) == 2 and parts[0] == "jobs":
            self._send_json(*self.service.cancel(parts[1]))
            return
        self._send_json(404, _error_doc("unknown endpoint"))

    # -- streaming -----------------------------------------------------
    def _stream_events(self, job_id: str) -> None:
        """NDJSON event stream: one live event per line, then EOF.

        Close-delimited (``Connection: close``): the stream ends when
        the job reaches a terminal state and every buffered event has
        been written.  Lines round-trip through
        :func:`repro.obs.live.event_from_record`.
        """
        job = self.service.get_job(job_id)
        if job is None:
            self._send_json(404, _error_doc(f"unknown job {job_id!r}"))
            return
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        start = 0
        try:
            while True:
                events, finished = job.wait_events(start)
                if events:
                    lines = "".join(
                        json.dumps(record, default=float) + "\n"
                        for record in job.event_records(events)
                    )
                    self.wfile.write(lines.encode())
                    self.wfile.flush()
                    start += len(events)
                if finished:
                    return
        except (BrokenPipeError, ConnectionResetError):
            logger.debug(
                "event stream for %s dropped by client", job_id
            )


def make_server(
    config: "ServiceConfig | None" = None,
    service: "PlacementService | None" = None,
) -> "tuple[PlacementService, ThreadingHTTPServer]":
    """Build (but do not start) the service and its HTTP server.

    The caller owns both lifecycles: ``service.start()`` spawns the
    worker pool, ``server.serve_forever()`` accepts requests, and
    :func:`serve` wires the two together for the CLI.
    """
    if service is None:
        service = PlacementService(config)
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer(
        (service.config.host, service.config.port), handler
    )
    server.daemon_threads = True
    return service, server


def serve(config: "ServiceConfig | None" = None) -> int:
    """Run the service until interrupted (the ``repro serve`` body)."""
    service, server = make_server(config)
    host, port = server.server_address[:2]
    service.start()
    logger.info("listening on http://%s:%s", host, port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        logger.info("interrupted; shutting down")
    finally:
        server.server_close()
        service.stop()
    return 0
