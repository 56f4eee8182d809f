"""Live telemetry bus: ordering, backpressure, sampler, overhead."""

from __future__ import annotations

import pytest

from repro.obs import emit, live


class TestEventBus:
    def test_delivery_in_subscription_and_publish_order(self):
        order: list[tuple[str, int]] = []
        bus = live.EventBus()
        bus.subscribe(lambda e: order.append(("first", e.iteration)))
        bus.subscribe(lambda e: order.append(("second", e.iteration)))
        for i in range(3):
            bus.publish(live.ProgressEvent("p", i, {}))
        assert order == [
            ("first", 0), ("second", 0),
            ("first", 1), ("second", 1),
            ("first", 2), ("second", 2),
        ]
        assert bus.published == 3

    def test_subscribe_is_idempotent_and_unsubscribe_removes(self):
        seen: list[object] = []
        bus = live.EventBus()
        bus.subscribe(seen.append)
        bus.subscribe(seen.append)  # no duplicate delivery
        bus.publish(live.PhaseEvent("p", "start"))
        assert len(seen) == 1
        bus.unsubscribe(seen.append)
        bus.publish(live.PhaseEvent("p", "end"))
        assert len(seen) == 1
        bus.unsubscribe(seen.append)  # unknown: ignored

    def test_source_stamps_progress_and_phase(self):
        sub = live.CollectingSubscriber()
        bus = live.EventBus(source=7)
        bus.subscribe(sub)
        with live.session(bus):
            live.phase("task", "start")
            emit("p", 1, progress={"value": 2.0}, health={})
        assert [e.source for e in sub.events] == [7, 7, 7]
        assert sub.events[1].values == {"value": 2.0}


class TestSession:
    def test_no_active_bus_is_noop(self):
        assert live.current() is None
        assert not live.active()
        emit("orphan", 0, progress={}, health={})  # must not raise
        live.phase("orphan", "start")

    def test_session_activates_and_nests(self):
        assert not live.active()
        with live.session() as outer:
            assert live.current() is outer
            inner_bus = live.EventBus()
            with live.session(inner_bus):
                assert live.current() is inner_bus
            assert live.current() is outer
        assert live.current() is None

    def test_disabled_bus_constructs_no_events(self, monkeypatch):
        constructed: list[int] = []
        real = live.ProgressEvent

        class Counting(real):  # type: ignore[misc, valid-type]
            def __init__(self, *args, **kwargs):
                constructed.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(live, "ProgressEvent", Counting)
        assert not live.active()
        for i in range(100):
            emit("p", i, progress={"value": float(i)}, health={})
        # the overhead guard: zero event construction when the bus is
        # off — the disabled path is one thread-local lookup
        assert constructed == []
        with live.session():
            emit("p", 0, progress={"value": 0.0}, health={})
        assert len(constructed) == 1

    def test_disabled_bus_constructs_no_health_samples(
        self, monkeypatch,
    ):
        from repro.obs import health

        constructed: list[int] = []
        real = health.HealthSample

        class Counting(real):  # type: ignore[misc, valid-type]
            def __init__(self, *args, **kwargs):
                constructed.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(health, "HealthSample", Counting)
        assert not live.active()
        for i in range(100):
            emit("p", i, progress={}, health={"grad_norm": float(i)})
        # same zero-construction guarantee as progress: the health
        # channel costs one thread-local lookup when no bus is active
        assert constructed == []
        with live.session():
            emit("p", 0, progress={}, health={"grad_norm": 0.0})
        assert len(constructed) == 1


class TestResourceSampler:
    def test_samples_flow_to_the_bus(self):
        sub = live.CollectingSubscriber()
        bus = live.EventBus()
        bus.subscribe(sub)
        with live.ResourceSampler(bus, interval=0.01) as sampler:
            deadline = 200
            while sampler.samples < 2 and deadline:
                sampler._stop.wait(0.01)
                deadline -= 1
        samples = [e for e in sub.events
                   if isinstance(e, live.ResourceSample)]
        assert len(samples) >= 2
        for sample in samples:
            assert sample.rss_kib > 0
            assert sample.cpu_s >= 0
            assert sample.elapsed_s >= 0

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            live.ResourceSampler(live.EventBus(), interval=0.0)


class TestCanonicalOrdering:
    def test_stable_sort_by_source(self):
        sub = live.CollectingSubscriber()
        # interleaved arrival from two sources plus a local event
        arrivals = [
            live.ProgressEvent("p", 1, {}, source=1),
            live.ProgressEvent("p", 1, {}, source=0),
            live.PhaseEvent("task", "start", source=None),
            live.ProgressEvent("p", 2, {}, source=1),
            live.ProgressEvent("p", 2, {}, source=0),
        ]
        for event in arrivals:
            sub(event)
        canonical = sub.canonical()
        assert [getattr(e, "source", None) for e in canonical] == \
            [None, 0, 0, 1, 1]
        # stability: per-source order is untouched
        assert [e.iteration for e in canonical
                if getattr(e, "source", None) == 1] == [1, 2]


class TestEventSerialisation:
    EVENTS = [
        live.ProgressEvent("p", 3, {"hpwl": 1.5}, source=2),
        live.PhaseEvent("task", "end", source=0),
        live.ResourceSample(0.5, 1024.0, 0.25, rss_is_peak=True),
        live.PhaseEvent("flow", "start", source=1),
        live.ResourceSample(1.25, 2048.0, 0.5, source=3),
    ]

    def test_round_trip(self):
        for event in self.EVENTS:
            record = live.event_to_record(event)
            assert isinstance(record["event"], str)
            assert live.event_from_record(record) == event

    def test_unknown_kinds_raise(self):
        with pytest.raises(TypeError):
            live.event_to_record(object())
        with pytest.raises(ValueError):
            live.event_from_record({"event": "nosuch"})
