"""The TimeSource protocol: simulated and wall-clock implementations."""

import time

import pytest

from repro.netsim.clock import SimClock
from repro.orb.world import World
from repro.rt.clock import MonotonicClock


class TestSimClock:
    def test_now_tracks_the_kernel_clock(self):
        world = World()
        clock = SimClock(world.clock)
        assert clock.now() == world.clock.now
        world.clock.advance(1.5)
        assert clock.now() == pytest.approx(1.5)

    def test_wait_advances_simulated_time(self):
        world = World()
        clock = SimClock(world.clock)
        clock.wait(0.25)
        assert world.clock.now == pytest.approx(0.25)

    def test_wait_until_never_goes_backwards(self):
        world = World()
        clock = SimClock(world.clock)
        clock.wait_until(0.5)
        clock.wait_until(0.1)  # already past; must not rewind
        assert world.clock.now == pytest.approx(0.5)

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

    def test_installed_on_an_orb(self):
        world = World()
        world.add_host("a")
        orb = world.orb("a")
        wall = MonotonicClock()
        orb.use_time_source(wall)
        assert orb.time_source is wall
