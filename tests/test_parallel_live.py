"""Worker→parent live-event bridge (repro.parallel.parallel_map_live)."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.obs import emit, live
from repro.parallel import parallel_map_live


def _emit_worker(item: int) -> int:
    """Publishes a deterministic per-item stream, returns item * 2."""
    for i in range(1, item + 1):
        emit("w.loop", i, progress={"value": float(item * 100 + i)},
             health={})
    return item * 2


def _boom_worker(item: int) -> int:
    if item == 2:
        raise ValueError("boom on item 2")
    return item


def _fail_or_linger_worker(item: int) -> int:
    """Task 0 raises at once; task 1 sleeps for 60 s, publishing nothing."""
    if item == 0:
        raise ValueError("boom on task 0")
    for _ in range(600):
        time.sleep(0.1)
    return item


def _run(items, jobs):
    sub = live.CollectingSubscriber()
    bus = live.EventBus()
    bus.subscribe(sub)
    out = parallel_map_live(_emit_worker, items, jobs=jobs, bus=bus)
    return out, sub


class TestBridgeBitIdentity:
    ITEMS = [3, 5, 2, 4]

    def test_jobs1_vs_jobs4_identical_canonical_stream(self):
        streams = []
        results = []
        for jobs in (1, 4):
            out, sub = _run(self.ITEMS, jobs)
            streams.append(sub.canonical())
            results.append(out)
        # results in input order, identical across job counts
        assert results[0] == results[1] == [6, 10, 4, 8]
        # the canonical merged stream is bit-identical: same events,
        # same per-source order, same payloads
        assert streams[0] == streams[1]

    def test_stream_content_and_task_markers(self):
        out, sub = _run(self.ITEMS, 1)
        for index, item in enumerate(self.ITEMS):
            mine = [e for e in sub.events
                    if getattr(e, "source", None) == index]
            assert isinstance(mine[0], live.PhaseEvent)
            assert (mine[0].phase, mine[0].status) == ("task", "start")
            assert isinstance(mine[-1], live.PhaseEvent)
            assert (mine[-1].phase, mine[-1].status) == ("task", "end")
            progress = [e for e in mine
                        if isinstance(e, live.ProgressEvent)]
            assert [e.iteration for e in progress] == \
                list(range(1, item + 1))
            assert progress[0].values == {"value": float(item * 100 + 1)}


class TestFailure:
    def test_worker_exception_propagates(self):
        for jobs in (1, 2):
            with pytest.raises((ValueError, RuntimeError),
                               match="boom on item 2"):
                parallel_map_live(_boom_worker, [1, 2, 3], jobs=jobs)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="jobs=2 runs inline on one core")
    def test_fail_fast_terminates_the_surviving_worker(self):
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="task 0 failed"):
            parallel_map_live(_fail_or_linger_worker, [0, 1], jobs=2)
        # task 1 would run for 60 s; it is terminated, not awaited
        assert time.perf_counter() - start < 20.0
        assert multiprocessing.active_children() == []
