"""Job records and the bounded FIFO queue behind the service.

A :class:`Job` is the unit the HTTP layer, the worker pool and the
event streamers all share, so it owns its own condition variable:
state transitions and live-event appends happen under ``job.cond``
and wake every waiter (pollers time out, streamers are notified).
The service-wide structures (job index, fingerprint index, queue)
are guarded separately by the service's lock — the ordering
discipline is *service lock before job condition, never the
reverse*, which keeps the lock graph acyclic (RPR404).

The queue itself is a plain bounded FIFO: it only decides *when*
work runs.  A full queue refuses immediately (:class:`QueueFull`,
HTTP 503) — backpressure by rejection, mirroring the live bus's
shed-don't-block policy.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Any

from ..obs.live import event_to_record
from ..obs.trace import Stopwatch
from .protocol import (
    JOB_SCHEMA,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobRequest,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel import LiveHandle


class QueueFull(RuntimeError):
    """The bounded job queue is at capacity; maps to HTTP 503."""


class Job:
    """One submitted placement job and its full lifecycle record."""

    def __init__(
        self,
        job_id: str,
        request: JobRequest,
        fingerprint: str,
    ) -> None:
        self.job_id = job_id
        self.request = request
        self.fingerprint = fingerprint
        #: guards every mutable field below; notify_all on any change
        self.cond = threading.Condition()
        self.state = QUEUED
        self.events: "list[Any]" = []
        self.result: "dict[str, Any] | None" = None
        self.error: "str | None" = None
        self.run_id: "str | None" = None
        #: submissions answered by this job beyond the first
        self.coalesced = 0
        self.cancel_requested = False
        self.timed_out = False
        self.handle: "LiveHandle | None" = None
        #: running-time clock, started by :meth:`mark_running`
        self.stopwatch: "Stopwatch | None" = None

    # -- live-event sink ----------------------------------------------
    def publish(self, event: Any) -> None:
        """Bus subscriber: buffer ``event`` and wake the streamers."""
        with self.cond:
            self.events.append(event)
            self.cond.notify_all()

    def wait_events(
        self, start: int, timeout: float = 0.25
    ) -> "tuple[list[Any], bool]":
        """Events from index ``start``; blocks briefly when none yet.

        Returns ``(new_events, finished)`` — ``finished`` is true once
        the job is terminal and every buffered event has been handed
        out, i.e. the stream is complete.
        """
        with self.cond:
            if (
                len(self.events) <= start
                and self.state not in TERMINAL_STATES
            ):
                self.cond.wait(timeout)
            new = list(self.events[start:])
            finished = (
                self.state in TERMINAL_STATES
                and start + len(new) >= len(self.events)
            )
            return new, finished

    # -- lifecycle -----------------------------------------------------
    def bind_handle(self, handle: "LiveHandle") -> None:
        """Receive the fan-out cancellation handle (pre-execution)."""
        with self.cond:
            self.handle = handle
            if self.cancel_requested:
                handle.cancel(0)

    def mark_running(self) -> bool:
        """QUEUED -> RUNNING; false when cancellation came first."""
        with self.cond:
            if self.state != QUEUED or self.cancel_requested:
                return False
            self.state = RUNNING
            self.stopwatch = Stopwatch()
            self.cond.notify_all()
            return True

    def finish(
        self,
        state: str,
        result: "dict[str, Any] | None" = None,
        error: "str | None" = None,
        run_id: "str | None" = None,
    ) -> None:
        """Enter a terminal state and wake every waiter."""
        assert state in TERMINAL_STATES, state
        with self.cond:
            self.state = state
            self.result = result
            self.error = error
            self.run_id = run_id
            self.cond.notify_all()

    def effective_timeout_s(
        self, default: "float | None"
    ) -> "float | None":
        """The wall-time budget in force: per-request, else service-wide."""
        if self.request.timeout_s is not None:
            return self.request.timeout_s
        return default

    def request_cancel(self) -> bool:
        """Ask a claimed job to stop; true when the request was accepted.

        A job a worker has popped never starts (:meth:`mark_running`
        refuses); a running job gets its fan-out cancel token set and
        reaches ``cancelled`` at its next progress publication.
        Terminal jobs refuse.
        """
        with self.cond:
            if self.state in TERMINAL_STATES:
                return False
            self.cancel_requested = True
            if self.handle is not None:
                self.handle.cancel(0)
            return True

    # -- serialisation -------------------------------------------------
    def to_doc(self) -> "dict[str, Any]":
        """The job record returned by ``GET /jobs/<id>``."""
        with self.cond:
            doc: "dict[str, Any]" = {
                "schema": JOB_SCHEMA,
                "id": self.job_id,
                "state": self.state,
                "fingerprint": self.fingerprint,
                "coalesced": self.coalesced,
                "events": len(self.events),
                "request": {
                    "circuit": self.request.circuit,
                    "method": self.request.method,
                    "seed": self.request.seed,
                    "params": dict(self.request.params),
                    "timeout_s": self.request.timeout_s,
                },
            }
            if self.error is not None:
                doc["error"] = self.error
            if self.run_id is not None:
                doc["run_id"] = self.run_id
            if self.result is not None:
                doc["result"] = self.result
            return doc

    def event_records(self, events: "list[Any]") -> "list[dict[str, Any]]":
        """JSONL-able dicts for ``events`` (the NDJSON line payloads)."""
        return [event_to_record(event) for event in events]


class JobQueue:
    """Bounded FIFO of :class:`Job` with blocking, closable pops."""

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        self.depth = int(depth)
        self._cond = threading.Condition()
        self._items: "deque[Job]" = deque()
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    def put(self, job: Job) -> None:
        """Append ``job``; raises :class:`QueueFull` at capacity."""
        with self._cond:
            if len(self._items) >= self.depth:
                raise QueueFull(
                    f"job queue is full ({self.depth} deep)"
                )
            self._items.append(job)
            self._cond.notify()

    def get(self, timeout: float = 0.5) -> "Job | None":
        """Pop the oldest job, waiting up to ``timeout`` for one.

        Returns ``None`` on timeout or when the queue has been
        closed — workers treat both as "check for shutdown, retry".
        """
        with self._cond:
            if not self._items and not self._closed:
                self._cond.wait(timeout)
            if self._items:
                return self._items.popleft()
            return None

    def remove(self, job: Job) -> bool:
        """Drop a queued job (freed capacity); false when not queued."""
        with self._cond:
            try:
                self._items.remove(job)
            except ValueError:
                return False
            return True

    def close(self) -> None:
        """Wake every blocked :meth:`get`; subsequent pops drain only."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
