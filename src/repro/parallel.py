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

Telemetry: a worker process starts with no active tracer.  Fan-out
sites that want per-worker traces activate ``obs.tracing()`` inside
the worker, ship the :class:`repro.obs.Trace` back in the result
(traces are plain picklable dataclasses), and merge them into the
parent's tracer with :meth:`repro.obs.trace.Tracer.absorb` in input
order — the trace is the one telemetry channel, so nothing crosses
the process boundary while a task runs.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

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
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=context
    ) as pool:
        return list(pool.map(fn, items, chunksize=1))

