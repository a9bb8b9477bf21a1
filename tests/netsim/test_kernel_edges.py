"""Kernel edge cases: bulk scheduling, slim events, boundary semantics."""

import tracemalloc

import pytest

from repro.netsim.clock import Clock, ClockError
from repro.netsim.kernel import EventKernel, KernelError
from repro.netsim.parallel import ShardedKernel
from repro.workloads.soak import schedule_soak, soak_config, soak_topology


class TestScheduleMany:
    def test_bulk_load_fires_in_time_order(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule_many([3.0, 1.0, 2.0], lambda: fired.append(
            kernel.clock.now))
        kernel.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_bulk_onto_cold_kernel_uses_one_heapify(self):
        # Indirect but observable: a 10k bulk load on an empty kernel
        # must leave a valid heap (pops come out ordered).
        kernel = EventKernel()
        times = [float((i * 7919) % 10_000 + 1) for i in range(10_000)]
        seen = []
        kernel.schedule_many(times, lambda: seen.append(kernel.clock.now))
        assert kernel.run() == 10_000
        assert seen == sorted(times)

    def test_bulk_merges_into_existing_queue(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule(2.5, fired.append, "mid")
        kernel.schedule_many([1.0, 2.0, 3.0], lambda: fired.append(
            kernel.clock.now))
        kernel.run()
        assert fired == [1.0, 2.0, "mid", 3.0]

    def test_shared_static_args(self):
        kernel = EventKernel()
        seen = []
        kernel.schedule_many([1.0, 2.0], seen.append, "tag")
        kernel.run()
        assert seen == ["tag", "tag"]

    def test_past_times_rejected(self):
        kernel = EventKernel(Clock(5.0))
        with pytest.raises(KernelError):
            kernel.schedule_many([6.0, 4.0], lambda: None)

    def test_ties_fire_in_scheduling_order(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule_many([1.0, 1.0], fired.append, "bulk")
        kernel.schedule_at(1.0, fired.append, "late")
        kernel.run()
        assert fired == ["bulk", "bulk", "late"]


class TestSlimEvents:
    def test_events_with_args_do_not_share(self):
        kernel = EventKernel()
        sink = []
        kernel.schedule(1.0, sink.append, "x")
        kernel.schedule(2.0, sink.append, "y")
        kernel.run()
        assert sink == ["x", "y"]

    @staticmethod
    def _bytes_per_event(schedule):
        kernel = EventKernel()
        times = [float(i + 1) for i in range(10_000)]
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        schedule(kernel, times)
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return (after - before) / len(times)

    def test_bulk_event_memory_footprint(self):
        # The tracemalloc regression guard for million-event runs: a
        # queued event is one (time, seq, fn, args) tuple, its seq int
        # and a heap slot — no event object.
        per_event = self._bytes_per_event(
            lambda kernel, times: kernel.schedule_many(times, lambda: None)
        )
        assert per_event < 150, f"{per_event:.0f} bytes per queued event"

    def test_three_argument_event_memory_footprint(self):
        def schedule(kernel, times):
            for time in times:
                kernel.schedule_at(time, max, 1, 2, 3)

        per_event = self._bytes_per_event(schedule)
        assert per_event < 200, f"{per_event:.0f} bytes per queued event"

    def test_live_peak_high_water_mark(self):
        kernel = EventKernel()
        kernel.schedule_many([1.0, 2.0, 3.0], lambda: None)
        assert kernel.live_peak == 3
        kernel.run()
        assert kernel.live_peak == 3  # never regresses


class TestRunUntilEdges:
    def test_past_deadline_fires_nothing(self):
        kernel = EventKernel(Clock(5.0))
        kernel.schedule(1.0, lambda: None)
        assert kernel.run_until(2.0) == 0
        assert kernel.clock.now == 5.0
        assert kernel.pending == 1

    def test_stats_panel(self):
        kernel = EventKernel()
        for i in range(4):
            kernel.schedule(float(i + 1), lambda: None)
        stats = kernel.stats()
        assert stats["pending"] == 4
        assert stats["live_peak"] == 4
        assert stats["compactions"] == 0
        kernel.run()
        assert kernel.stats()["events_fired"] == 4
        assert kernel.stats()["pending"] == 0


NAN = float("nan")


def _three_events():
    kernel = EventKernel()
    for time in (1.0, 5.0, 9.0):
        kernel.schedule_at(time, lambda: None)
    return kernel


def _soak_kernel():
    topology = soak_topology(clusters=2, hosts_per_cluster=2)
    kernel = ShardedKernel(topology, shards=2)
    schedule_soak(kernel, soak_config(topology, duration=0.05))
    return kernel


class TestNaNBounds:
    """NaN compares false both ways, so ``x < 0`` guards let it through:
    ``Clock.advance(nan)`` froze the clock at NaN, and a NaN run bound
    drained the whole queue.  Each entry point now rejects it."""

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: Clock(NAN), ClockError),
            (lambda: Clock(1.0).advance(NAN), ClockError),
            (lambda: _three_events().run_until(NAN), KernelError),
            (lambda: _soak_kernel().run(until=NAN), KernelError),
        ],
        ids=["Clock", "Clock.advance", "EventKernel.run_until",
             "ShardedKernel.run"],
    )
    def test_rejected(self, call, error):
        with pytest.raises(error):
            call()


class TestEveryBoundary:
    def test_occurrence_exactly_at_until_fires(self):
        kernel = EventKernel()
        ticks = []
        kernel.every(1.0, lambda: ticks.append(kernel.clock.now), until=3.0)
        kernel.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_occurrence_just_past_until_does_not(self):
        kernel = EventKernel()
        ticks = []
        kernel.every(1.0, lambda: ticks.append(kernel.clock.now),
                     until=2.999999)
        kernel.run()
        assert ticks == [1.0, 2.0]
