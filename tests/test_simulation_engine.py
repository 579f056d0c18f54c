"""Tests for the discrete-event simulation engine."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.simulation.engine import Process, SimulationEngine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(5.0, lambda e: order.append("b"))
        engine.schedule(1.0, lambda e: order.append("a"))
        engine.schedule(10.0, lambda e: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(3.5, lambda e: seen.append(e.now))
        engine.run()
        assert seen == [3.5]
        assert engine.now == 3.5

    def test_ties_broken_by_priority_then_insertion(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(1.0, lambda e: order.append("low"), priority=5)
        engine.schedule(1.0, lambda e: order.append("high"), priority=0)
        engine.schedule(1.0, lambda e: order.append("low2"), priority=5)
        engine.run()
        assert order == ["high", "low", "low2"]

    def test_schedule_in_past_rejected(self):
        engine = SimulationEngine(start_time=100.0)
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda e: None)
        with pytest.raises(ValueError):
            engine.schedule_at(50.0, lambda e: None)

    def test_cancelled_event_does_not_run(self):
        engine = SimulationEngine()
        ran = []
        event = engine.schedule(1.0, lambda e: ran.append(1))
        event.cancel()
        engine.run()
        assert ran == []

    def test_clear_drops_pending_events(self):
        engine = SimulationEngine()
        ran = []
        engine.schedule(1.0, lambda e: ran.append("dropped"))
        engine.clear()
        engine.schedule(2.0, lambda e: ran.append("kept"))
        engine.run()
        assert ran == ["kept"]

    def test_events_scheduled_during_run_execute(self):
        engine = SimulationEngine()
        order = []

        def first(e: SimulationEngine) -> None:
            order.append("first")
            e.schedule(1.0, lambda e2: order.append("second"))

        engine.schedule(1.0, first)
        engine.run()
        assert order == ["first", "second"]
        assert engine.now == 2.0


class TestRunUntil:
    def test_run_until_stops_at_boundary(self):
        engine = SimulationEngine()
        ran = []
        engine.schedule(1.0, lambda e: ran.append(1))
        engine.schedule(5.0, lambda e: ran.append(5))
        engine.run_until(3.0)
        assert ran == [1]
        assert engine.now == 3.0

    def test_run_until_includes_events_at_boundary(self):
        engine = SimulationEngine()
        ran = []
        engine.schedule(3.0, lambda e: ran.append(3))
        engine.run_until(3.0)
        assert ran == [3]

    def test_run_until_advances_clock_when_queue_empty(self):
        engine = SimulationEngine()
        engine.run_until(42.0)
        assert engine.now == 42.0

    def test_run_until_rejects_past(self):
        engine = SimulationEngine(start_time=10.0)
        with pytest.raises(ValueError):
            engine.run_until(5.0)


class TestPeriodic:
    def test_periodic_event_repeats(self):
        engine = SimulationEngine()
        ticks = []
        engine.schedule_periodic(10.0, lambda e: ticks.append(e.now), until=50.0)
        engine.run()
        assert ticks == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_periodic_with_custom_start_delay(self):
        engine = SimulationEngine()
        ticks = []
        engine.schedule_periodic(
            10.0, lambda e: ticks.append(e.now), start_delay=2.0, until=25.0
        )
        engine.run()
        assert ticks == [2.0, 12.0, 22.0]

    def test_periodic_rejects_non_positive_interval(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule_periodic(0.0, lambda e: None)

    def test_stop_halts_run(self):
        engine = SimulationEngine()
        ticks = []

        def tick(e: SimulationEngine) -> None:
            ticks.append(e.now)
            if len(ticks) == 3:
                e.stop()

        engine.schedule_periodic(1.0, tick)
        engine.run(max_events=100)
        assert len(ticks) == 3

    def test_finished_chain_is_freed_by_reference_counting(self):
        """A chain past ``until`` keeps nothing alive through a cycle."""

        class Owner:
            def tick(self, engine: SimulationEngine) -> None:
                pass

        owner = Owner()
        engine = SimulationEngine()
        engine.schedule_periodic(1.0, owner.tick, until=3.0)
        engine.run()
        probe = weakref.ref(owner)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del owner
            assert probe() is None
        finally:
            if enabled:
                gc.enable()


class TestProcess:
    class CountingProcess(Process):
        def __init__(self, engine: SimulationEngine) -> None:
            super().__init__(engine, "counter")
            self.count = 0

        def step(self, engine: SimulationEngine) -> None:
            self.count += 1

    def test_process_steps_on_interval(self):
        engine = SimulationEngine()
        process = self.CountingProcess(engine)
        process.start(5.0)
        engine.run_until(22.0)
        assert process.count == 4

    def test_process_stop_prevents_future_steps(self):
        engine = SimulationEngine()
        process = self.CountingProcess(engine)
        process.start(5.0)
        engine.run_until(11.0)
        process.stop()
        engine.run_until(50.0)
        assert process.count == 2
        assert not process.running

    def test_process_cannot_start_twice(self):
        engine = SimulationEngine()
        process = self.CountingProcess(engine)
        process.start(5.0)
        with pytest.raises(RuntimeError):
            process.start(5.0)

    def test_base_step_is_abstract(self):
        engine = SimulationEngine()
        process = Process(engine)
        with pytest.raises(NotImplementedError):
            process.step(engine)
