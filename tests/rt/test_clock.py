"""The TimeSource protocol: simulated and wall-clock implementations."""

import threading
import time

import pytest

from repro.netsim.clock import SimClock
from repro.orb.world import World
from repro.rt.clock import MonotonicClock


class TestSimClock:
    def test_now_tracks_the_kernel_clock(self):
        world = World()
        clock = SimClock(world.clock, world.kernel)
        assert clock.now() == world.clock.now
        world.clock.advance(1.5)
        assert clock.now() == pytest.approx(1.5)

    def test_wait_advances_simulated_time(self):
        world = World()
        clock = SimClock(world.clock, world.kernel)
        clock.wait(0.25)
        assert world.clock.now == pytest.approx(0.25)

    def test_wait_until_never_goes_backwards(self):
        world = World()
        clock = SimClock(world.clock, world.kernel)
        clock.wait_until(0.5)
        clock.wait_until(0.1)  # already past; must not rewind
        assert world.clock.now == pytest.approx(0.5)

    def test_schedule_after_fires_through_the_kernel(self):
        world = World()
        clock = SimClock(world.clock, world.kernel)
        fired = []
        clock.schedule_after(0.3, fired.append, "tick")
        assert fired == []
        world.kernel.run_until(1.0)
        assert fired == ["tick"]

    def test_schedule_after_without_kernel_is_an_error(self):
        world = World()
        clock = SimClock(world.clock, kernel=None)
        with pytest.raises(RuntimeError):
            clock.schedule_after(0.1, lambda: None)

    def test_orb_default_time_source_is_sim(self):
        world = World()
        world.add_host("a")
        orb = world.orb("a")
        assert isinstance(orb.time_source, SimClock)
        orb.time_source.wait(0.1)
        assert world.clock.now == pytest.approx(0.1)


class TestMonotonicClock:
    def test_now_starts_near_zero_and_increases(self):
        clock = MonotonicClock()
        first = clock.now()
        assert 0.0 <= first < 1.0
        assert clock.now() >= first

    def test_wait_really_sleeps(self):
        clock = MonotonicClock()
        before = clock.now()
        clock.wait(0.02)
        assert clock.now() - before >= 0.015

    def test_wait_until_past_instant_returns_immediately(self):
        clock = MonotonicClock()
        start = time.monotonic()
        clock.wait_until(clock.now() - 10.0)
        assert time.monotonic() - start < 0.05

    def test_schedule_after_fires_on_a_timer(self):
        clock = MonotonicClock()
        fired = threading.Event()
        clock.schedule_after(0.01, fired.set)
        assert fired.wait(2.0)

    def test_schedule_after_is_cancellable(self):
        clock = MonotonicClock()
        fired = threading.Event()
        handle = clock.schedule_after(5.0, fired.set)
        handle.cancel()
        assert not fired.wait(0.05)

    def test_installed_on_an_orb(self):
        world = World()
        world.add_host("a")
        orb = world.orb("a")
        wall = MonotonicClock()
        orb.use_time_source(wall)
        assert orb.time_source is wall
