"""Worker→parent live-event bridge (repro.parallel.parallel_map_live)."""

from __future__ import annotations

import pytest

from repro.obs import live
from repro.parallel import CancelledTask, parallel_map_live


def _emit_worker(item: int) -> int:
    """Publishes a deterministic per-item stream, returns item * 2."""
    for i in range(1, item + 1):
        live.progress("w.loop", i, value=float(item * 100 + i))
    return item * 2


def _boom_worker(item: int) -> int:
    if item == 2:
        raise ValueError("boom on item 2")
    return item


def _slow_emit_worker(item: int) -> int:
    """Like :func:`_emit_worker` but slow enough to cancel mid-run."""
    import time

    for i in range(1, 50):
        live.progress("w.loop", i, value=float(item * 10 + i))
        time.sleep(0.05)
    return item * 2


def _run(items, jobs, handle_ready=None):
    sub = live.CollectingSubscriber()
    bus = live.EventBus()
    bus.subscribe(sub)
    out = parallel_map_live(
        _emit_worker, items, jobs=jobs, bus=bus,
        handle_ready=handle_ready,
    )
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


class TestCancellation:
    def test_pre_cancelled_task_resolves_to_marker(self):
        for jobs in (1, 2):
            out, sub = _run(
                [3, 4], jobs,
                handle_ready=lambda handle: handle.cancel(1),
            )
            assert out[0] == 6
            marker = out[1]
            assert isinstance(marker, CancelledTask)
            assert marker.index == 1
            assert marker.phase == "w.loop"
            # cancelled at its very first progress publication
            assert marker.iteration == 1
            # a cancelled task ends with its last progress event, not
            # a task-end marker
            task1 = [e for e in sub.events
                     if getattr(e, "source", None) == 1]
            assert not any(
                isinstance(e, live.PhaseEvent) and e.status == "end"
                for e in task1
            )

    def test_handle_reports_cancelled_state(self):
        seen = {}

        def ready(handle):
            seen["handle"] = handle
            handle.cancel(0)

        out, _ = _run([2, 3], 1, handle_ready=ready)
        handle = seen["handle"]
        assert handle.cancelled(0) and not handle.cancelled(1)
        assert isinstance(out[0], CancelledTask)
        assert out[1] == 6

    def test_mid_run_cancellation_forked(self):
        captured = {}

        def on_ready(handle):
            captured["handle"] = handle

        def watcher(event):
            if (isinstance(event, live.ProgressEvent)
                    and event.source == 0 and event.iteration >= 2):
                captured["handle"].cancel(0)

        bus = live.EventBus()
        bus.subscribe(watcher)
        out = parallel_map_live(
            _slow_emit_worker, [7], jobs=1, bus=bus,
            handle_ready=on_ready, always_fork=True,
        )
        assert isinstance(out[0], CancelledTask)
        assert out[0].iteration >= 2


class TestFailure:
    def test_worker_exception_propagates(self):
        for jobs in (1, 2):
            with pytest.raises((ValueError, RuntimeError),
                               match="boom on item 2"):
                parallel_map_live(_boom_worker, [1, 2, 3], jobs=jobs)
