"""Runtime race sanitizer: lock order and fork safety.

These tests arm ``REPRO_SANITIZE=1`` via monkeypatch per test; the CI
``sanitize`` job additionally runs the whole obs/parallel/lint suite
with the variable exported so the instrumented locks in the real
stack (EventBus, registry sink) are exercised under load.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import sanitize
from repro.obs import live
from repro.parallel import parallel_map, parallel_map_live


@pytest.fixture
def sanitized(monkeypatch):
    """Arm the sanitizer and isolate the global lock-order graph."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitize.reset_order_graph()
    yield
    sanitize.reset_order_graph()


class TestEnabled:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.enabled()
        lock = sanitize.make_lock("x")
        assert not isinstance(lock, sanitize.TrackedLock)

    def test_on_with_env(self, sanitized):
        assert sanitize.enabled()
        assert isinstance(
            sanitize.make_lock("x"), sanitize.TrackedLock
        )


class TestLockOrder:
    def test_inversion_raises_deterministically(self, sanitized):
        a = sanitize.make_lock("A")
        b = sanitize.make_lock("B")
        with a:
            with b:
                pass
        # the opposite nesting now fails on ONE thread, without any
        # second thread or unlucky scheduling
        with pytest.raises(sanitize.LockOrderError, match="inversion"):
            with b:
                with a:
                    pass

    def test_consistent_order_is_fine(self, sanitized):
        a = sanitize.make_lock("A")
        b = sanitize.make_lock("B")
        for _ in range(3):
            with a:
                with b:
                    pass

    def test_reset_forgets_orders(self, sanitized):
        a = sanitize.make_lock("A")
        b = sanitize.make_lock("B")
        with a:
            with b:
                pass
        sanitize.reset_order_graph()
        with b:
            with a:
                pass  # no recorded history, no inversion

    def test_transitive_inversion_detected(self, sanitized):
        a = sanitize.make_lock("A")
        b = sanitize.make_lock("B")
        c = sanitize.make_lock("C")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with pytest.raises(sanitize.LockOrderError):
            with c:
                with a:
                    pass

    def test_reentrant_reacquire_allowed(self, sanitized):
        lock = sanitize.make_lock("R", reentrant=True)
        with lock:
            with lock:
                assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()

    def test_release_restores_stack(self, sanitized):
        a = sanitize.make_lock("A")
        with a:
            assert a.held_by_current_thread()
        assert not a.held_by_current_thread()


class TestForkSafety:
    def test_noop_when_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sanitize.check_fork_safety()  # never raises when off

    def test_clean_process_passes(self, sanitized):
        sanitize.check_fork_safety()

    def test_nondaemon_thread_raises(self, sanitized):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with pytest.raises(
                sanitize.ForkSafetyError, match="non-daemon"
            ):
                sanitize.check_fork_safety()
        finally:
            release.set()
            thread.join()

    def test_main_thread_is_exempt_from_worker_forks(self, sanitized):
        # A threaded server forks from worker threads while the main
        # thread is (unavoidably) alive — that must not be flagged.
        outcome = []

        def worker():
            try:
                sanitize.check_fork_safety()
                outcome.append(None)
            except sanitize.ForkSafetyError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        thread.join()
        assert outcome == [None]

    def test_running_sampler_raises(self, sanitized):
        sampler = live.ResourceSampler(live.EventBus(), interval=0.05)
        sampler.start()
        try:
            with pytest.raises(
                sanitize.ForkSafetyError, match="resource-sampler"
            ):
                sanitize.check_fork_safety()
        finally:
            sampler.stop()
        sanitize.check_fork_safety()  # clean again once stopped

    def test_suspend_samplers_makes_fork_safe(self, sanitized):
        sampler = live.ResourceSampler(live.EventBus(), interval=0.05)
        sampler.start()
        try:
            with live.suspend_samplers():
                assert not sampler.running
                sanitize.check_fork_safety()
            assert sampler.running
        finally:
            sampler.stop()

    def test_at_fork_hook_records_not_raises(self, sanitized):
        sanitize.install()
        sanitize.install()  # idempotent
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        before = len(sanitize.fork_violations)
        try:
            sanitize._at_fork_check()  # must not raise
        finally:
            release.set()
            thread.join()
        assert len(sanitize.fork_violations) == before + 1
        assert "hazardous" in sanitize.fork_violations[-1]


class TestSamplerPauseResume:
    def test_elapsed_clock_survives_pause(self, sanitized):
        sink = live.CollectingSubscriber()
        bus = live.EventBus()
        bus.subscribe(sink)
        sampler = live.ResourceSampler(bus, interval=0.01)
        sampler.start()
        try:
            time.sleep(0.05)
            sampler.pause()
            n_paused = len(sink.events)
            assert n_paused >= 1
            time.sleep(0.03)
            assert len(sink.events) == n_paused  # truly stopped
            sampler.resume()
            deadline = time.time() + 2.0
            while len(sink.events) <= n_paused and time.time() < deadline:
                time.sleep(0.01)
            assert len(sink.events) > n_paused
        finally:
            sampler.stop()
        elapsed = [e.elapsed_s for e in sink.events]
        assert elapsed == sorted(elapsed)  # continuous across pause


class TestEventBusStress:
    def test_concurrent_publish_and_subscriber_churn(self, sanitized):
        bus = live.EventBus()
        sink = live.CollectingSubscriber()
        bus.subscribe(sink)
        errors: "list[BaseException]" = []
        n_threads, n_events = 4, 250

        def publisher(idx: int) -> None:
            try:
                for i in range(n_events):
                    bus.publish(
                        live.ProgressEvent("stress", i, {}, idx)
                    )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=publisher, args=(idx,))
            for idx in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        # churn the subscriber list while publishers hammer the bus:
        # subscribe/unsubscribe take the bus's tracked lock
        churn = live.CollectingSubscriber()
        for _ in range(50):
            bus.subscribe(churn)
            bus.unsubscribe(churn)
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(sink.events) == n_threads * n_events


def _double(x: int) -> int:
    return 2 * x


class TestForkRegression:
    """Forking under an active live session with a running sampler.

    The original hazard: ``parallel_map`` forked while the resource
    sampler's daemon thread was mid-publish, so the child inherited
    locked locks.  The fix routes every fork through
    ``live.suspend_samplers()`` + ``sanitize.check_fork_safety()`` —
    with the sanitizer armed, these tests fail loudly if the guard
    ever regresses.
    """

    def test_parallel_map_with_live_sampler(self, sanitized):
        sink = live.CollectingSubscriber()
        with live.session() as bus:
            bus.subscribe(sink)
            sampler = live.ResourceSampler(bus, interval=0.01)
            sampler.start()
            try:
                assert parallel_map(_double, [1, 2, 3], jobs=2) == [
                    2, 4, 6
                ]
                # the sampler was resumed after the fork and samples on
                deadline = time.time() + 2.0
                baseline = len(sink.events)
                while (
                    len(sink.events) <= baseline
                    and time.time() < deadline
                ):
                    time.sleep(0.01)
                assert sampler.running
                assert len(sink.events) > baseline
            finally:
                sampler.stop()

    def test_parallel_map_live_with_live_sampler(self, sanitized):
        bus = live.EventBus()
        sampler = live.ResourceSampler(bus, interval=0.01)
        sampler.start()
        try:
            out = parallel_map_live(
                _double, [4, 5], jobs=2, bus=bus
            )
            assert out == [8, 10]
            assert sampler.running
        finally:
            sampler.stop()
