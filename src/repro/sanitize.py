"""Runtime race sanitizer: lock order and fork safety.

The static rules in :mod:`repro.lint` (RPR4xx) prove what they can see
in the call graph; this module catches what they cannot — the actual
interleavings of a live run.  It is **off by default and free when
off**: every entry point checks ``REPRO_SANITIZE=1`` once and falls
back to plain :mod:`threading` primitives, so production runs carry no
instrumentation cost.  CI runs the obs/parallel/lint test subset
with the sanitizer active.

Two checkers:

* **Lock order** — :func:`make_lock` returns a :class:`TrackedLock`
  that records, per thread, the stack of held sanitized locks and
  feeds every acquisition into a global lock-order graph.  Acquiring
  ``B`` while holding ``A`` adds the edge ``A -> B``; if ``B -> A`` is
  already reachable, two threads could interleave into a deadlock and
  :class:`LockOrderError` is raised *deterministically* on the first
  inverted acquisition — no unlucky scheduling needed.
* **Fork safety** — :func:`check_fork_safety` asserts no live
  non-daemon thread and no live :class:`~repro.obs.live.ResourceSampler`
  thread at fork time (a forked child inherits a snapshot of the
  parent's memory but *none* of its threads: locks held by those
  threads stay locked forever in the child).  ``repro.parallel`` calls
  it inside its ``live.suspend_samplers()`` guard before every fork;
  :func:`install` additionally registers a best-effort
  ``os.register_at_fork`` hook (exceptions raised there are swallowed
  by CPython as unraisable, so the hook records violations in
  :data:`fork_violations` and prints to stderr instead of raising).
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Any, Iterable

_ENV_VAR = "REPRO_SANITIZE"


def enabled() -> bool:
    """True when the sanitizer is switched on (``REPRO_SANITIZE=1``)."""
    return os.environ.get(_ENV_VAR, "") == "1"


class LockOrderError(RuntimeError):
    """Two sanitized locks were acquired in inconsistent orders."""


class ForkSafetyError(RuntimeError):
    """A fork was attempted while hazardous threads were alive."""


# ---------------------------------------------------------------------------
# lock-order tracking

#: per-thread stack of held sanitized lock names (innermost last)
_HELD = threading.local()


def _held_stack() -> list[str]:
    stack = getattr(_HELD, "stack", None)
    if stack is None:
        stack = []
        _HELD.stack = stack
    return stack


class _OrderGraph:
    """Global directed graph of observed lock-acquisition orders."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._edges: dict[str, set[str]] = {}

    def _reaches(self, src: str, dst: str) -> bool:
        """Is ``dst`` reachable from ``src`` (existing edges only)?"""
        seen = {src}
        frontier = [src]
        while frontier:
            node = frontier.pop()
            for nxt in self._edges.get(node, ()):
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def record(self, held: Iterable[str], new: str) -> None:
        """Add ``held -> new`` edges; raise on an order inversion."""
        with self._lock:
            for outer in held:
                if outer == new:
                    continue  # re-entrant acquire of the same RLock
                if self._reaches(new, outer):
                    raise LockOrderError(
                        f"lock-order inversion: acquiring {new!r} "
                        f"while holding {outer!r}, but the opposite "
                        f"nesting ({new!r} before {outer!r}) was "
                        "already observed; two threads taking these "
                        "paths concurrently can deadlock"
                    )
                self._edges.setdefault(outer, set()).add(new)

    def reset(self) -> None:
        """Forget all recorded orders (test isolation)."""
        with self._lock:
            self._edges.clear()


_ORDER = _OrderGraph()

_NAME_LOCK = threading.Lock()
_NAME_COUNTER = 0


def _auto_name() -> str:
    global _NAME_COUNTER
    with _NAME_LOCK:
        _NAME_COUNTER += 1
        return f"lock-{_NAME_COUNTER}"


class TrackedLock:
    """A lock recording per-thread acquisition order.

    Drop-in for the ``threading.Lock``/``RLock`` surface this codebase
    uses (``with lock:``, ``acquire``/``release``).  Every acquisition
    is checked against the global order graph *before* blocking, so an
    inversion fails fast instead of deadlocking the test run.
    """

    def __init__(self, name: str | None = None,
                 reentrant: bool = False) -> None:
        self.name = name or _auto_name()
        self.reentrant = bool(reentrant)
        self._inner: Any = (
            threading.RLock() if reentrant else threading.Lock()
        )

    def held_by_current_thread(self) -> bool:
        """True when this thread currently holds the lock."""
        return self.name in _held_stack()

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        stack = _held_stack()
        if not (self.reentrant and self.name in stack):
            _ORDER.record(list(stack), self.name)
        acquired = bool(self._inner.acquire(blocking, timeout))
        if acquired:
            stack.append(self.name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        stack = _held_stack()
        # remove the innermost occurrence (re-entrant locks stack)
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == self.name:
                del stack[i]
                break

    def __enter__(self) -> TrackedLock:
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.release()
        return False


def make_lock(name: str | None = None,
              reentrant: bool = False) -> Any:
    """A lock: plain when the sanitizer is off, tracked when on.

    This is the factory the obs stack uses for every internal lock, so
    a single environment variable arms order checking across the whole
    process without touching call sites.
    """
    if not enabled():
        return threading.RLock() if reentrant else threading.Lock()
    return TrackedLock(name, reentrant)


def reset_order_graph() -> None:
    """Clear recorded lock orders (between independent tests)."""
    _ORDER.reset()


# ---------------------------------------------------------------------------
# fork safety

#: thread-name prefixes that must never be alive across a fork even
#: though they are daemons (they hold buffers/locks mid-publish)
_HAZARD_THREAD_PREFIXES = ("repro-resource-sampler",)

#: violations recorded by the best-effort at-fork hook (the hook
#: cannot raise — CPython swallows at-fork exceptions as unraisable)
fork_violations: list[str] = []

_INSTALLED = False


def _hazardous_threads() -> list[threading.Thread]:
    current = threading.current_thread()
    main = threading.main_thread()
    hazards = []
    for thread in threading.enumerate():
        if thread is current or not thread.is_alive():
            continue
        if thread is main:
            # The main thread cannot be stopped before forking (it *is*
            # the process), so "stop it first" is unsatisfiable advice;
            # a fork from any other thread necessarily coexists with
            # it.  Its lock exposure is covered by the order-graph and
            # suspend_samplers checks instead.
            continue
        if not thread.daemon:
            hazards.append(thread)
        elif thread.name.startswith(_HAZARD_THREAD_PREFIXES):
            hazards.append(thread)
    return hazards


def check_fork_safety() -> None:
    """Raise :class:`ForkSafetyError` on fork-hostile live threads.

    No-op when the sanitizer is off.  Called by ``repro.parallel``
    inside its ``live.suspend_samplers()`` block, i.e. *after*
    samplers have been paused — anything still alive here is a real
    hazard, not the sanctioned sampler being about to stop.
    """
    if not enabled():
        return
    hazards = _hazardous_threads()
    if hazards:
        names = ", ".join(
            f"{t.name}{'' if t.daemon else ' (non-daemon)'}"
            for t in hazards
        )
        raise ForkSafetyError(
            f"fork attempted with live hazardous thread(s): {names}; "
            "a forked child inherits their locks in a locked state "
            "but not the threads themselves — stop them (or use "
            "live.suspend_samplers()) before forking"
        )


def _at_fork_check() -> None:
    if not enabled():
        return
    hazards = _hazardous_threads()
    if hazards:
        message = (
            "repro.sanitize: fork with live hazardous thread(s): "
            + ", ".join(t.name for t in hazards)
        )
        fork_violations.append(message)
        sys.stderr.write(message + "\n")


def install() -> None:
    """Register the best-effort ``os.register_at_fork`` guard (once).

    The hook cannot raise (CPython reports at-fork exceptions as
    unraisable and continues), so it appends to
    :data:`fork_violations` and prints to stderr; the raising check is
    the explicit :func:`check_fork_safety` call in ``repro.parallel``.
    """
    global _INSTALLED
    if _INSTALLED:
        return
    os.register_at_fork(before=_at_fork_check)
    _INSTALLED = True
