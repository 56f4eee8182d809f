"""Process-parallel fan-out with deterministic result ordering.

The paper's experiments are embarrassingly parallel at the *task*
level: benchmark cases, SA seeds and testcase rows never share state —
each worker builds its own circuit and engine from a picklable payload.
This module is the one place that owns the fork/join mechanics so
every fan-out site (``repro.bench run --jobs``, ``place_multiseed``,
the experiments drivers) behaves identically:

* **Deterministic ordering** — results come back in *input* order
  regardless of worker scheduling, so a parallel run is byte-for-byte
  the concatenation a sequential run would have produced.
* **Seed sharding** — parallelism never splits one seeded run; the
  unit of distribution is an entire seeded task, so per-task RNG
  streams are untouched and ``jobs=N`` output equals ``jobs=1``.
* **Inline fallback** — ``jobs<=1`` (or a single task) runs in the
  calling process with no pool, keeping debuggers, coverage and
  profilers usable on the exact production code path.

Workers are separate *processes* (the engines are CPU-bound Python and
numpy, so threads would serialise on the GIL for the pure-Python SA
hot loop).  Worker functions must be module-level (picklable) and take
a single payload argument.

Tracing: a worker process starts with no active tracer.  Fan-out sites
that want per-worker traces activate ``obs.tracing()`` inside the
worker, ship the :class:`repro.obs.Trace` back in the result (traces
are plain picklable dataclasses), and merge them into the parent's
tracer with :meth:`repro.obs.trace.Tracer.absorb`.

Live telemetry: :func:`parallel_map_live` is the streaming variant —
each worker runs under its own :class:`repro.obs.live.EventBus` whose
events are forwarded over a pipe and republished on the parent's bus
as they arrive, stamped with the worker's task index (``source``).
Per-task event order is preserved end to end, so the canonical merged
stream (stable sort by source) is bit-identical for any job count.
When a worker process fails, the map fails fast: the surviving
workers are terminated and a ``RuntimeError`` names the failed task.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

from . import sanitize
from .obs import live
from .obs.log import get_logger

logger = get_logger("parallel")

_T = TypeVar("_T")
_R = TypeVar("_R")


def normalize_jobs(jobs: "int | None") -> int:
    """Clamp a ``--jobs`` value to ``[1, cpu_count]``.

    ``None`` and ``0`` mean "use every core"; negative values raise.
    """
    cpus = os.cpu_count() or 1
    if jobs is None or jobs == 0:
        return cpus
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return min(int(jobs), cpus)


def parallel_map(
    fn: "Callable[[_T], _R]",
    items: "Sequence[_T]",
    jobs: "int | None" = 1,
) -> "list[_R]":
    """Map ``fn`` over ``items`` with up to ``jobs`` worker processes.

    Results are returned in input order.  With ``jobs<=1`` or fewer
    than two items the map runs inline in the calling process —
    no pool, no pickling — so the sequential path stays the reference
    behaviour the parallel path must reproduce.

    ``fn`` must be a module-level function and each item picklable; a
    worker exception propagates to the caller (the pool is torn down,
    remaining tasks are abandoned).
    """
    effective = normalize_jobs(jobs)
    if effective <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(effective, len(items))
    # fork keeps loaded modules (numpy, scipy) instead of re-importing
    # them per worker; every platform this repo targets supports it
    context = multiprocessing.get_context("fork")
    logger.info(
        "parallel map: %d tasks on %d workers", len(items), workers
    )
    # no sampler thread may be alive while the pool forks: a forked
    # child would inherit the thread's locks mid-publish but not the
    # thread itself (see RPR402 / docs/STATIC_ANALYSIS.md)
    with live.suspend_samplers():
        sanitize.check_fork_safety()
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            return list(pool.map(fn, items, chunksize=1))


# ---------------------------------------------------------------------------
# streaming fan-out: the worker -> parent live-event bridge


def _execute_task(
    fn: "Callable[[_T], _R]",
    item: "_T",
    task_bus: "live.EventBus",
) -> "_R":
    """Run one task under its own live bus; shared by both paths.

    Inline and worker-process execution publish byte-identical event
    sequences because they run this exact function: a ``task``
    start marker, the engine's own events, and an ``end`` marker.
    """
    with live.session(task_bus):
        live.phase("task", "start")
        result = fn(item)
        live.phase("task", "end")
        return result


def _live_worker(
    fn: "Callable[[Any], Any]",
    index: int,
    item: Any,
    channel: Any,
) -> None:
    """Child-process body: forward events, then the task's outcome.

    Runs under a fork context, so ``fn``/``item`` arrive by memory
    inheritance (never pickled); events and results return through
    ``channel`` and are pickled there.  Message order per task is
    guaranteed by the queue's FIFO discipline: every event precedes
    the final ``done``/``error`` message.
    """
    try:
        task_bus = live.EventBus(source=index)
        task_bus.subscribe(
            lambda event: channel.put(("event", index, event))
        )
        result = _execute_task(fn, item, task_bus)
        channel.put(("done", index, result))
    except BaseException:
        channel.put(("error", index, traceback.format_exc()))


def parallel_map_live(
    fn: "Callable[[_T], _R]",
    items: "Sequence[_T]",
    jobs: "int | None" = 1,
    bus: "live.EventBus | None" = None,
) -> "list[_R]":
    """:func:`parallel_map` with live event streaming.

    Each task runs under its own :class:`repro.obs.live.EventBus`;
    events are republished on ``bus`` (the parent's) as they arrive,
    stamped with the task index as ``source``.  Results come back in
    input order.  Both the inline and the worker-process path run
    :func:`_execute_task`, so their event streams are bit-identical.

    A worker error fails fast: the running workers are terminated
    and joined, and a ``RuntimeError`` carrying the failed task's
    index and traceback is raised.

    Ordering contract: per-task event order is preserved in both the
    inline and the worker-process path, so sorting the merged stream
    stably by ``source`` yields the same canonical sequence for any
    ``jobs`` — the bridge bit-identity tests pin this.  Cross-*task*
    interleaving is scheduling-dependent (that is what makes the
    stream live).
    """
    if bus is None:
        bus = live.EventBus()
    effective = normalize_jobs(jobs)
    n = len(items)
    if effective <= 1 or n <= 1:
        results: "list[_R]" = []
        for index, item in enumerate(items):
            task_bus = live.EventBus(source=index)
            task_bus.subscribe(bus.publish)
            results.append(_execute_task(fn, item, task_bus))
        return results

    workers = min(effective, n)
    context = multiprocessing.get_context("fork")
    channel: Any = context.Queue()
    logger.info(
        "live parallel map: %d tasks on %d workers", n, workers
    )

    running: "dict[int, Any]" = {}
    out: "list[Any]" = [None] * n
    next_task = 0
    failure: "str | None" = None
    #: consecutive empty polls seen after every running worker died —
    #: lets in-flight messages drain before declaring a lost worker
    dead_polls = 0
    while (next_task < n or running) and failure is None:
        while len(running) < workers and next_task < n:
            # pause samplers only around the fork itself so resource
            # telemetry keeps flowing while workers run
            with live.suspend_samplers():
                sanitize.check_fork_safety()
                proc = context.Process(
                    target=_live_worker,
                    args=(fn, next_task, items[next_task], channel),
                    daemon=True,
                )
                proc.start()
            running[next_task] = proc
            next_task += 1
        try:
            message = channel.get(timeout=0.1)
        except queue_mod.Empty:
            if any(p.is_alive() for p in running.values()):
                dead_polls = 0
                continue
            dead_polls += 1
            if dead_polls >= 20:
                lost = sorted(running)
                failure = (
                    f"worker process(es) for task(s) {lost} exited "
                    "without reporting a result"
                )
            continue
        dead_polls = 0
        kind, index, payload = message
        if kind == "event":
            bus.publish(payload)
        elif kind == "done":
            out[index] = payload
            running.pop(index).join()
        else:  # "error": fail fast, stop the rest of the fleet
            failure = f"task {index} failed:\n{payload}"
    if failure is not None:
        for proc in running.values():
            proc.terminate()
            proc.join()
        raise RuntimeError(failure)
    return out
