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


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        kernel = EventKernel()
        fired = []
        event = kernel.schedule(1.0, fired.append, "x")
        event.cancel()
        kernel.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        kernel = EventKernel()
        event = kernel.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert kernel.run() == 0


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


class TestLazyCancellation:
    def test_pending_live_tracks_cancellations(self):
        kernel = EventKernel()
        events = [kernel.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert kernel.pending == 10
        assert kernel.pending_live == 10
        for event in events[:4]:
            event.cancel()
        assert kernel.pending_live == 6

    def test_double_cancel_counts_once(self):
        kernel = EventKernel()
        event = kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert kernel.pending_live == 1

    def test_compaction_shrinks_queue(self):
        kernel = EventKernel()
        threshold = EventKernel.COMPACT_THRESHOLD
        events = [
            kernel.schedule(float(i + 1), lambda: None)
            for i in range(threshold + 10)
        ]
        # Cancel enough that dead entries pass the threshold AND
        # outnumber the live ones: the heap must physically shrink
        # (compaction fires at the threshold crossing; cancellations
        # after it sit in the queue until the next crossing).
        for event in events[: threshold + 5]:
            event.cancel()
        assert kernel.pending_live == 5
        assert kernel.pending <= 10

    def test_cancelled_events_do_not_fire(self):
        kernel = EventKernel()
        fired = []
        events = [
            kernel.schedule(float(i + 1), fired.append, i) for i in range(100)
        ]
        for event in events[::2]:
            event.cancel()
        kernel.run()
        assert fired == list(range(1, 100, 2))
        assert kernel.pending == 0
        assert kernel.pending_live == 0

    def test_run_until_discards_cancelled_heads(self):
        kernel = EventKernel()
        fired = []
        first = kernel.schedule(1.0, fired.append, "a")
        kernel.schedule(2.0, fired.append, "b")
        first.cancel()
        assert kernel.run_until(3.0) == 1
        assert fired == ["b"]
        assert kernel.pending_live == 0

    def test_ordering_survives_compaction(self):
        kernel = EventKernel()
        fired = []
        events = [
            kernel.schedule(float(i % 7 + 1), fired.append, i)
            for i in range(200)
        ]
        for event in events[:150]:
            event.cancel()
        kernel.run()
        survivors = list(range(150, 200))
        # Same-time events fire in scheduling order within each due time.
        expected = sorted(survivors, key=lambda i: (i % 7, i))
        assert fired == expected
