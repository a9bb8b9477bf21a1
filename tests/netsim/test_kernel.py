"""Tests for the discrete-event kernel."""

import pytest

from repro.netsim.clock import Clock
from repro.netsim.kernel import EventKernel, KernelError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule(2.0, fired.append, "late")
        kernel.schedule(1.0, fired.append, "early")
        kernel.run()
        assert fired == ["early", "late"]

    def test_ties_fire_in_scheduling_order(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule(1.0, fired.append, "first")
        kernel.schedule(1.0, fired.append, "second")
        kernel.schedule(1.0, fired.append, "third")
        kernel.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        kernel = EventKernel()
        seen = []
        kernel.schedule(3.5, lambda: seen.append(kernel.clock.now))
        kernel.run()
        assert seen == [3.5]

    def test_schedule_at_absolute_time(self):
        kernel = EventKernel(Clock(5.0))
        fired = []
        kernel.schedule_at(7.0, fired.append, "x")
        kernel.run()
        assert fired == ["x"]
        assert kernel.clock.now == 7.0

    def test_schedule_in_past_rejected(self):
        kernel = EventKernel(Clock(5.0))
        with pytest.raises(KernelError):
            kernel.schedule_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        kernel = EventKernel()
        with pytest.raises(KernelError):
            kernel.schedule(-1.0, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        kernel = EventKernel()
        fired = []

        def chain():
            fired.append("a")
            kernel.schedule(1.0, fired.append, "b")

        kernel.schedule(1.0, chain)
        kernel.run()
        assert fired == ["a", "b"]
        assert kernel.clock.now == 2.0


class TestRunUntil:
    def test_stops_at_deadline(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule(1.0, fired.append, "in")
        kernel.schedule(3.0, fired.append, "out")
        count = kernel.run_until(2.0)
        assert count == 1
        assert fired == ["in"]
        assert kernel.clock.now == 2.0
        assert kernel.pending == 1

    def test_event_exactly_at_deadline_fires(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule(2.0, fired.append, "edge")
        kernel.run_until(2.0)
        assert fired == ["edge"]

    def test_advances_clock_even_without_events(self):
        kernel = EventKernel()
        kernel.run_until(9.0)
        assert kernel.clock.now == 9.0


class TestPeriodic:
    def test_every_fires_repeatedly(self):
        kernel = EventKernel()
        ticks = []
        kernel.every(1.0, lambda: ticks.append(kernel.clock.now), until=3.5)
        kernel.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_every_rejects_nonpositive_period(self):
        kernel = EventKernel()
        with pytest.raises(KernelError):
            kernel.every(0.0, lambda: None)


NAN = float("nan")


class TestNaNTimes:
    """A NaN due time compares false both ways, so it used to slip past
    the ``time < now`` guards and fire out of order."""

    @pytest.mark.parametrize(
        "schedule_nan",
        [
            lambda kernel, fn: kernel.schedule_at(NAN, fn, NAN),
            lambda kernel, fn: kernel.schedule(NAN, fn, NAN),
            lambda kernel, fn: kernel.schedule_many([0.25, NAN], fn, NAN),
            lambda kernel, fn: kernel.every(NAN, fn, NAN),
        ],
        ids=["schedule_at", "schedule", "schedule_many", "every"],
    )
    def test_rejected_and_the_queue_still_drains_in_order(self, schedule_nan):
        kernel = EventKernel()
        fired = []
        for time in (3.0, 1.0, 2.0):
            kernel.schedule_at(time, fired.append, time)
        with pytest.raises(KernelError):
            schedule_nan(kernel, fired.append)
        kernel.schedule_at(0.5, fired.append, 0.5)
        kernel.run()
        assert fired == [0.5, 1.0, 2.0, 3.0]


class TestAccounting:
    def test_events_fired_counter(self):
        kernel = EventKernel()
        for delay in (1.0, 2.0, 3.0):
            kernel.schedule(delay, lambda: None)
        kernel.run()
        assert kernel.events_fired == 3

    def test_run_guards_against_runaway(self):
        kernel = EventKernel()

        def forever():
            kernel.schedule(1.0, forever)

        kernel.schedule(1.0, forever)
        with pytest.raises(KernelError):
            kernel.run(max_events=100)
