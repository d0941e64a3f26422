"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Processor, Simulator, Timer, ms, seconds, us


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.at(30, lambda: fired.append(30))
        sim.at(10, lambda: fired.append(10))
        sim.at(20, lambda: fired.append(20))
        sim.run()
        assert fired == [10, 20, 30]

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.at(100, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_after_is_relative_to_now(self):
        sim = Simulator()
        seen = []
        sim.at(50, lambda: sim.after(25, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [75]

    def test_call_soon_runs_at_current_time_after_pending(self):
        sim = Simulator()
        order = []
        def first():
            sim.call_soon(lambda: order.append("soon"))
            order.append("first")
        sim.at(10, first)
        sim.at(10, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "soon"]

    def test_scheduling_in_the_past_is_an_error(self):
        sim = Simulator()
        sim.at(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(50, lambda: None)

    def test_negative_delay_is_an_error(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.at(10, lambda: fired.append("no"))
        ev.cancel()
        sim.at(20, lambda: fired.append("yes"))
        sim.run()
        assert fired == ["yes"]

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        ev = sim.at(10, lambda: None)
        ev.cancel()
        ev.cancel()
        sim.run()
        assert sim.events_executed == 0


class TestRun:
    def test_run_until_stops_before_boundary_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.at(10, lambda: fired.append(10))
        sim.at(100, lambda: fired.append(100))
        sim.run(until=50)
        assert fired == [10]
        assert sim.now == 50
        sim.run()
        assert fired == [10, 100]

    def test_event_at_until_boundary_stays_queued(self):
        sim = Simulator()
        fired = []
        sim.at(50, lambda: fired.append(50))
        sim.run(until=50)
        assert fired == []
        sim.run()
        assert fired == [50]

    def test_max_events_limits_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.at(i + 1, lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []
        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)
        sim.at(1, reenter)
        sim.run()
        assert len(errors) == 1

    def test_pending_and_next_event_time(self):
        sim = Simulator()
        assert sim.next_event_time() is None
        ev = sim.at(5, lambda: None)
        sim.at(9, lambda: None)
        assert sim.pending() == 2
        assert sim.next_event_time() == 5
        ev.cancel()
        assert sim.next_event_time() == 9

    def test_trace_hook_sees_labels(self):
        seen = []
        sim = Simulator(trace_hook=lambda t, label: seen.append((t, label)))
        sim.at(7, lambda: None, label="alpha")
        sim.run()
        assert seen == [(7, "alpha")]


class TestUnits:
    def test_tick_conversions(self):
        assert us(1) == 1_000
        assert ms(1) == 1_000_000
        assert seconds(1) == 1_000_000_000
        assert us(0.5) == 500


class TestTimer:
    def test_restart_replaces_pending_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(10)
        sim.run(until=5)
        timer.restart(10)
        sim.run()
        assert fired == [15]

    def test_cancel_disarms(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.restart(10)
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.armed


class TestProcessor:
    def test_executes_work_and_reports_busy(self):
        sim = Simulator()
        proc = Processor(sim, "p0")
        done = []
        sim.at(10, lambda: proc.execute(100, lambda: done.append(sim.now)))
        sim.run(until=50)
        assert proc.busy
        assert proc.busy_until == 110
        sim.run()
        assert done == [110]
        assert not proc.busy

    def test_rejects_concurrent_work(self):
        sim = Simulator()
        proc = Processor(sim, "p0")
        proc.execute(100, lambda: None)
        with pytest.raises(SimulationError):
            proc.execute(1, lambda: None)

    def test_rejects_negative_duration(self):
        sim = Simulator()
        proc = Processor(sim, "p0")
        with pytest.raises(SimulationError):
            proc.execute(-5, lambda: None)

    def test_utilization_accounting(self):
        sim = Simulator()
        proc = Processor(sim, "p0")
        proc.execute(100, lambda: None)
        sim.run()
        sim.at(200, lambda: None)
        sim.run()
        assert proc.busy_ticks == 100
        assert proc.utilization() == pytest.approx(0.5)

    def test_zero_duration_work_completes_same_tick(self):
        sim = Simulator()
        proc = Processor(sim, "p0")
        done = []
        proc.execute(0, lambda: done.append(sim.now))
        sim.run()
        assert done == [0]


class TestHeapOrder:
    def test_equal_time_fifo_across_entry_points_with_cancellations(self):
        sim = Simulator()
        order = []
        doomed = []

        def at_ten():
            order.append("at")
            sim.call_soon(lambda: order.append("soon-1"))
            doomed.append(sim.after(0, lambda: order.append("never-1")))
            sim.after(0, lambda: order.append("after-0"))
            doomed.append(sim.call_soon(lambda: order.append("never-2")))
            sim.at(10, lambda: order.append("at-10"))
            for ev in doomed:
                ev.cancel()

        sim.at(10, at_ten)
        sim.after(10, lambda: order.append("after-10"))
        sim.at(10, lambda: order.append("at-10-b")).cancel()
        sim.at(10, lambda: order.append("at-10-c"))
        sim.run()
        assert order == ["at", "after-10", "at-10-c", "soon-1", "after-0",
                         "at-10"]
        assert sim.events_executed == 6
        assert sim.pending() == 0

    def test_events_at_until_stay_queued_and_resume(self):
        sim = Simulator()
        fired = []
        sim.at(10, lambda: sim.at(50, lambda: fired.append("late")))
        sim.at(50, lambda: fired.append("boundary"))
        sim.at(49, lambda: fired.append("before"))
        sim.run(until=50)
        assert fired == ["before"]
        assert sim.now == 50
        assert sim.pending() == 2
        assert sim.next_event_time() == 50
        sim.run(until=51)
        assert fired == ["before", "boundary", "late"]
        assert sim.now == 51

    def test_max_events_counts_only_executed_events(self):
        sim = Simulator()
        fired = []
        for i in range(6):
            ev = sim.at(i, lambda i=i: fired.append(i))
            if i % 2 == 0:
                ev.cancel()
        sim.run(max_events=2)
        assert fired == [1, 3]
        assert sim.events_executed == 2
        sim.run(max_events=5)
        assert fired == [1, 3, 5]

    def test_max_events_stop_leaves_clock_short_of_until(self):
        sim = Simulator()
        sim.at(5, lambda: None)
        sim.at(7, lambda: None)
        sim.run(until=100, max_events=1)
        assert sim.now == 5
        assert sim.pending() == 1

    def test_step_skips_cancelled_and_reports_exhaustion(self):
        sim = Simulator()
        fired = []
        sim.at(3, lambda: fired.append(3)).cancel()
        sim.at(4, lambda: fired.append(4))
        assert sim.step() is True
        assert fired == [4] and sim.now == 4
        assert sim.step() is False

    def test_cancelled_events_leave_no_trace(self):
        seen = []
        sim = Simulator(trace_hook=lambda t, label: seen.append(label))
        sim.at(1, lambda: None, "keep")
        sim.at(1, lambda: None, "drop").cancel()
        sim.run()
        assert seen == ["keep"]
        assert sim.events_executed == 1
