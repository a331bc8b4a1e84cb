"""Tests for the discrete-event engine (repro.sim.engine)."""

import pytest

from repro.sim.engine import EventEngine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = EventEngine()
        log = []
        engine.schedule(3.0, log.append, "c")
        engine.schedule(1.0, log.append, "a")
        engine.schedule(2.0, log.append, "b")
        engine.run()
        assert log == ["a", "b", "c"]
        assert engine.now == 3.0
        assert engine.processed_events == 3

    def test_fifo_among_equal_times(self):
        engine = EventEngine()
        log = []
        for name in "abc":
            engine.schedule(1.0, log.append, name)
        engine.run()
        assert log == ["a", "b", "c"]

    def test_schedule_after(self):
        engine = EventEngine()
        times = []
        engine.schedule(1.0, lambda: engine.schedule_after(0.5, lambda: times.append(engine.now)))
        engine.run()
        assert times == [1.5]

    def test_scheduling_in_the_past_rejected(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule(0.5, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule_after(-1.0, lambda: None)

    def test_callbacks_can_chain_events(self):
        engine = EventEngine()
        hits = []

        def tick(remaining):
            hits.append(engine.now)
            if remaining > 0:
                engine.schedule_after(1.0, tick, remaining - 1)

        engine.schedule(0.0, tick, 3)
        engine.run()
        assert hits == [0.0, 1.0, 2.0, 3.0]


class TestControl:
    def test_next_event_time_peeks_past_cancelled_heads(self):
        engine = EventEngine()
        assert engine.next_event_time() is None
        cancelled = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.cancel(cancelled)
        assert engine.next_event_time() == 2.0
        engine.run()
        assert engine.next_event_time() is None

    def test_advance_to_moves_clock_forward_only(self):
        engine = EventEngine()
        engine.advance_to(1.5)
        assert engine.now == 1.5
        with pytest.raises(ValueError):
            engine.advance_to(1.0)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.now == 2.0

    def test_cancel_skips_event(self):
        engine = EventEngine()
        log = []
        handle = engine.schedule(1.0, log.append, "x")
        engine.schedule(2.0, log.append, "y")
        engine.cancel(handle)
        engine.run()
        assert log == ["y"]

    def test_cancelled_events_are_not_processed(self):
        engine = EventEngine()
        handles = [engine.schedule(float(t), lambda: None) for t in range(4)]
        engine.cancel(handles[1])
        engine.cancel(handles[3])
        assert engine.run() == 2.0
        assert engine.processed_events == 2

    def test_cancel_twice_is_noop(self):
        engine = EventEngine()
        log = []
        handle = engine.schedule(1.0, log.append, "x")
        engine.schedule(2.0, log.append, "y")
        engine.cancel(handle)
        engine.cancel(handle)
        engine.run()
        assert log == ["y"]
        assert engine.processed_events == 1

    def test_cancel_after_execution_is_noop(self):
        engine = EventEngine()
        log = []
        handle = engine.schedule(1.0, log.append, "x")
        engine.run()
        engine.cancel(handle)
        engine.schedule(2.0, log.append, "y")
        engine.run()
        assert log == ["x", "y"]
        assert engine.processed_events == 2

    def test_run_on_empty_queue_keeps_the_clock(self):
        engine = EventEngine()
        assert engine.run() == 0.0
        engine.advance_to(4.0)
        assert engine.run() == 4.0
        assert engine.processed_events == 0
