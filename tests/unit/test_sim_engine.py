"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.events import Delay, Signal, WaitEvent


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert SimulationEngine().now == 0.0

    def test_callbacks_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(2.0, lambda: order.append("late"))
        engine.schedule(1.0, lambda: order.append("early"))
        engine.run()
        assert order == ["early", "late"]
        assert engine.now == 2.0

    def test_ties_run_in_scheduling_order(self):
        engine = SimulationEngine()
        order = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: order.append(i))
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda: None)

    def test_cancelled_entries_do_not_run(self):
        engine = SimulationEngine()
        hits = []
        entry = engine.schedule(1.0, lambda: hits.append("cancelled"))
        engine.schedule(2.0, lambda: hits.append("kept"))
        entry.cancelled = True
        engine.run()
        assert hits == ["kept"]

    def test_run_until_stops_early(self):
        engine = SimulationEngine()
        hits = []
        engine.schedule(1.0, lambda: hits.append(1))
        engine.schedule(5.0, lambda: hits.append(5))
        engine.run(until=2.0)
        assert hits == [1]
        assert engine.now == 2.0

    def test_max_events_guard(self):
        engine = SimulationEngine()

        def reschedule():
            engine.schedule(0.0, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError, match="max_events"):
            engine.run(max_events=100)


class TestProcesses:
    def test_process_delays_advance_time(self):
        def body():
            yield Delay(1.5)
            yield Delay(0.5)
            return "done"

        engine = SimulationEngine()
        proc = engine.spawn(body())
        engine.run()
        assert proc.finished
        assert proc.result == "done"
        assert proc.finish_time == pytest.approx(2.0)

    def test_wait_and_signal_between_processes(self):
        engine = SimulationEngine()
        done = engine.event("done")
        log = []

        def producer():
            yield Delay(1.0)
            yield Signal(done, "data")
            log.append(("produced", engine.now))

        def consumer():
            value = yield WaitEvent(done)
            log.append(("consumed", value, engine.now))

        procs = [engine.spawn(consumer()), engine.spawn(producer())]
        engine.run_until_complete(procs)
        assert ("consumed", "data", 1.0) in log

    def test_wait_on_already_triggered_event_resumes_immediately(self):
        engine = SimulationEngine()
        done = engine.event("done")
        done.trigger("x", time=0.0)

        def body():
            value = yield WaitEvent(done)
            return value

        proc = engine.spawn(body())
        engine.run()
        assert proc.result == "x"
        assert proc.finish_time == 0.0

    def test_deadlock_detection(self):
        engine = SimulationEngine()
        never = engine.event("never")

        def body():
            yield WaitEvent(never)

        proc = engine.spawn(body())
        with pytest.raises(RuntimeError, match="blocked"):
            engine.run_until_complete([proc])

    def test_unsupported_yield_type_raises(self):
        engine = SimulationEngine()

        def body():
            yield 123

        engine.spawn(body())
        with pytest.raises(TypeError):
            engine.run()

    def test_trace_records_resumptions(self):
        engine = SimulationEngine(trace=True)

        def body():
            yield Delay(1.0)

        engine.spawn(body(), name="traced")
        engine.run()
        assert any("traced" in record for record in [r[2] for r in engine.trace])
