"""Live telemetry bus: streaming engine events while a run happens.

The recorder in :mod:`repro.obs.trace` tells the convergence story
*post mortem* — spans and iteration records are snapshotted into a
:class:`~repro.obs.trace.Trace` after the engine returns.  This module
is the streaming half of the observability stack: engines publish
typed events *while they run* and any number of subscribers watch the
stream live.  The run registry (:mod:`repro.obs.registry`) persists
event streams next to traces.

Event types (all plain picklable dataclasses, see each class):

* :class:`ProgressEvent` — one per engine iteration (or temperature
  stage / CG step); deterministic content, **no timestamps**, so two
  seeded runs publish identical streams and the cross-process bridge
  can be tested for bit-identity.
* :class:`PhaseEvent` — lifecycle markers (``start``/``end``) for
  flows and fan-out tasks.
* :class:`ResourceSample` — RSS/CPU snapshots from the background
  :class:`ResourceSampler` daemon thread (these *do* carry elapsed
  time; they are diagnostics, not part of the deterministic stream).

Design rules, mirroring :mod:`repro.obs.trace`:

* **Off by default, near-zero cost when off.**  Engines publish
  progress through :func:`repro.obs.emit`, the one call per record
  site, which records into the tracer and publishes here.  With no bus
  active on the thread it returns after a single thread-local lookup
  and constructs *no event object* — the overhead-guard test pins
  zero ``ProgressEvent`` constructions on the disabled path.  Engines
  additionally guard value computation behind
  ``tracer.enabled or live.active()`` so disabled runs skip even the
  value dicts.
* **Synchronous, ordered delivery.**  ``publish`` calls every
  subscriber inline, in subscription order; a subscriber sees events
  in exactly the order they were published.

Cross-process: :func:`repro.parallel.parallel_map_live` runs each
worker under its own bus whose events are forwarded over a pipe and
republished on the parent's bus, stamped with the worker's task
``source`` index.  Per-source order is preserved end to end, so
:meth:`CollectingSubscriber.canonical` (a stable sort by source)
reconstructs the same merged stream for any job count.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from .. import sanitize

#: union of the event types carried by the bus (kept informal so
#: subscribers can be written against duck-typed ``source`` access)
Event = Any


@dataclass
class ProgressEvent:
    """One per-iteration convergence update from an engine main loop.

    ``values`` holds the engine-chosen numeric fields (``hpwl``,
    ``best_cost``, ``overflow``, ...) — the same payload the tracer's
    :class:`~repro.obs.trace.IterationRecord` captures.  Carries no
    wall-clock so seeded runs publish identical streams; ``source`` is
    ``None`` in-process and the fan-out task index when the event
    crossed the worker bridge.
    """

    phase: str
    iteration: int
    values: dict
    source: "int | None" = None


@dataclass
class PhaseEvent:
    """Lifecycle marker: a named phase ``start``ed or ``end``ed."""

    phase: str
    status: str  # "start" | "end"
    source: "int | None" = None


@dataclass
class ResourceSample:
    """One background resource snapshot (see :class:`ResourceSampler`).

    ``elapsed_s`` is seconds on the sampler's monotonic clock since
    sampling started; ``cpu_s`` is cumulative process CPU time.  RSS
    is read from ``/proc/self/statm`` when available and falls back to
    ``resource.getrusage`` peak RSS otherwise (``rss_is_peak`` says
    which).
    """

    elapsed_s: float
    rss_kib: float
    cpu_s: float
    rss_is_peak: bool = False
    source: "int | None" = None


class EventBus:
    """In-process pub/sub hub for live telemetry events.

    Subscribers are plain callables ``event -> None`` invoked
    synchronously in subscription order; exceptions propagate to the
    publisher (a broken consumer should fail the run loudly, not
    silently drop telemetry).  ``source`` stamps every event published
    through this bus by :func:`repro.obs.emit` and :func:`phase`.
    """

    def __init__(self, source: "int | None" = None) -> None:
        self.source = source
        self._lock = sanitize.make_lock("obs.live.EventBus")
        self._subscribers: "tuple[Callable[[Event], None], ...]" = ()
        self.published = 0

    def subscribe(self, fn: "Callable[[Event], None]") -> None:
        """Add ``fn`` to the delivery list (idempotent per object)."""
        with self._lock:
            if fn not in self._subscribers:
                self._subscribers = self._subscribers + (fn,)

    def unsubscribe(self, fn: "Callable[[Event], None]") -> None:
        """Remove ``fn``; unknown subscribers are ignored."""
        with self._lock:
            self._subscribers = tuple(
                sub for sub in self._subscribers if sub != fn
            )

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to every subscriber, in order.

        The subscriber tuple is replaced atomically on (un)subscribe,
        so publishing iterates a consistent snapshot without holding
        the lock while user code runs.
        """
        self.published += 1
        for fn in self._subscribers:
            fn(event)


class CollectingSubscriber:
    """Unbounded event sink with a canonical cross-process ordering.

    ``events`` is arrival order (what a live consumer saw);
    :meth:`canonical` is a *stable* sort by ``source``, which — because
    per-source order is preserved by the bridge — yields the same
    merged stream for any worker count.  The bridge bit-identity tests
    compare exactly this.
    """

    def __init__(self) -> None:
        self.events: "list[Event]" = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def canonical(self) -> "list[Event]":
        return sorted(
            self.events,
            key=lambda e: (
                -1 if getattr(e, "source", None) is None
                else int(e.source)
            ),
        )


# ---------------------------------------------------------------------------
# thread-local active bus (mirrors repro.obs.trace._ACTIVE)

_ACTIVE = threading.local()


def current() -> "EventBus | None":
    """The bus active on this thread (``None`` when telemetry is off)."""
    return getattr(_ACTIVE, "bus", None)


def active() -> bool:
    """True when a live bus is active on this thread."""
    return getattr(_ACTIVE, "bus", None) is not None


def phase(name: str, status: str) -> None:
    """Publish one :class:`PhaseEvent` on the active bus (no-op off)."""
    bus = getattr(_ACTIVE, "bus", None)
    if bus is None:
        return
    bus.publish(PhaseEvent(name, status, bus.source))


@contextmanager
def session(bus: "EventBus | None" = None) -> "Iterator[EventBus]":
    """Activate ``bus`` (or a fresh one) on this thread for the block.

    Nests like :func:`repro.obs.tracing`: the previous bus (if any) is
    restored on exit.
    """
    if bus is None:
        bus = EventBus()
    previous = getattr(_ACTIVE, "bus", None)
    _ACTIVE.bus = bus
    try:
        yield bus
    finally:
        _ACTIVE.bus = previous


# ---------------------------------------------------------------------------
# background resource sampling


def _read_rss_kib() -> "tuple[float, bool]":
    """Current RSS in KiB, preferring ``/proc`` (exact, current).

    Returns ``(rss_kib, is_peak)``; the fallback reports the peak RSS
    from ``getrusage`` because portable *current* RSS needs psutil,
    which this repo does not depend on.
    """
    try:
        with open("/proc/self/statm") as handle:
            fields = handle.read().split()
        return float(fields[1]) * os.sysconf("SC_PAGE_SIZE") / 1024.0, False
    except (OSError, IndexError, ValueError):
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        return float(usage.ru_maxrss), True


#: all samplers between ``start()`` and ``stop()`` — what
#: :func:`suspend_samplers` pauses across a fork.  Guarded by its own
#: lock; never held while pausing/resuming (joins happen outside).
_SAMPLERS_LOCK = threading.Lock()
_SAMPLERS: "list[ResourceSampler]" = []


class ResourceSampler:
    """Daemon thread publishing :class:`ResourceSample` events.

    Samples every ``interval`` seconds on its own monotonic clock and
    publishes to the bus it was given — independent of the
    thread-local active bus, so a sampler can watch a run from outside
    the engine thread.  Use as a context manager::

        with live.session() as bus, live.ResourceSampler(bus, 0.25):
            place(circuit)

    A sampler thread must never be alive while ``repro.parallel``
    forks (the child would inherit the thread's locks mid-publish but
    not the thread); :func:`suspend_samplers` pauses every registered
    sampler for the duration of a fork and resumes it after,
    preserving the cumulative ``elapsed_s`` clock.
    """

    def __init__(self, bus: EventBus, interval: float = 0.5) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.bus = bus
        self.interval = float(interval)
        self.samples = 0
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        #: elapsed seconds accumulated across pause/resume cycles
        self._elapsed_base = 0.0
        self._started_at = 0.0

    def _run(self) -> None:
        start = time.perf_counter()
        while not self._stop.is_set():
            rss_kib, is_peak = _read_rss_kib()
            times = os.times()
            self.bus.publish(ResourceSample(
                elapsed_s=(
                    self._elapsed_base + time.perf_counter() - start
                ),
                rss_kib=rss_kib,
                cpu_s=times.user + times.system,
                rss_is_peak=is_peak,
                source=self.bus.source,
            ))
            self.samples += 1
            self._stop.wait(self.interval)

    @property
    def running(self) -> bool:
        """True while the sampling thread is alive (not paused)."""
        return self._thread is not None

    def _spawn(self) -> None:
        self._stop = threading.Event()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler",
            daemon=True,
        )
        self._thread.start()

    def start(self) -> "ResourceSampler":
        """Start the daemon sampling thread (idempotent)."""
        if self._thread is None:
            self._spawn()
            with _SAMPLERS_LOCK:
                if self not in _SAMPLERS:
                    _SAMPLERS.append(self)
        return self

    def pause(self) -> None:
        """Stop the thread, keeping the elapsed clock and registration.

        A paused sampler stays in the suspend registry; :meth:`resume`
        restarts sampling with ``elapsed_s`` continuing where it
        stopped.  No-op when not running.
        """
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        self._elapsed_base += time.perf_counter() - self._started_at

    def resume(self) -> None:
        """Restart sampling after :meth:`pause` (no-op when running)."""
        if self._thread is None:
            self._spawn()

    def stop(self) -> None:
        """Stop sampling, join the thread and deregister."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with _SAMPLERS_LOCK:
            if self in _SAMPLERS:
                _SAMPLERS.remove(self)

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False


@contextmanager
def suspend_samplers() -> "Iterator[None]":
    """Pause every running sampler for the block, then resume them.

    This is the sanctioned fork guard: ``repro.parallel`` wraps each
    fork primitive in it, so no sampler thread is alive at fork time
    (the static rule RPR402 recognises the pattern and the runtime
    sanitizer asserts it).  Nested use is safe — the inner block sees
    the samplers already paused and touches nothing.
    """
    with _SAMPLERS_LOCK:
        paused = [s for s in _SAMPLERS if s.running]
    for sampler in paused:
        sampler.pause()
    try:
        yield
    finally:
        for sampler in paused:
            sampler.resume()


# ---------------------------------------------------------------------------
# event (de)serialisation for the run registry's events.jsonl

_EVENT_TYPES: "dict[str, type]" = {
    "progress": ProgressEvent,
    "phase": PhaseEvent,
    "resource": ResourceSample,
}
_TYPE_NAMES = {cls: name for name, cls in _EVENT_TYPES.items()}


def event_to_record(event: Event) -> dict:
    """One JSONL-able dict per event, discriminated by ``"event"``."""
    name = _TYPE_NAMES.get(type(event))
    if name is None:
        raise TypeError(f"not a live telemetry event: {event!r}")
    record = {"event": name}
    record.update(event.__dict__)
    return record


def event_from_record(record: dict) -> Event:
    """Inverse of :func:`event_to_record` (raises on unknown kinds)."""
    kind = record.get("event")
    cls = _EVENT_TYPES.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown live event kind {kind!r}")
    fields = {k: v for k, v in record.items() if k != "event"}
    return cls(**fields)


def register_event_type(name: str, cls: type) -> None:
    """Add an event dataclass to the events.jsonl (de)serialisation map.

    Sibling modules defining their own bus event types (e.g. the
    health channel in :mod:`repro.obs.health`) register them here at
    import time so :func:`event_to_record` / :func:`event_from_record`
    round-trip them like the built-in three.  Re-registering the same
    name with the same class is a no-op; a conflicting class raises.
    """
    existing = _EVENT_TYPES.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"live event kind {name!r} already registered for "
            f"{existing.__name__}"
        )
    _EVENT_TYPES[name] = cls
    _TYPE_NAMES[cls] = name
