"""Logical simulated time, and the time interface QoS code is written to.

Every component of a simulated world shares one :class:`Clock`.  Time
is a float number of seconds starting at zero.  Components *advance*
the clock by the costs they model (marshalling, link latency, payload
serialisation time, servant service time); nothing under netsim reads
wall-clock time, which keeps all tests and benchmarks deterministic.

:class:`TimeSource` is the contract layered on top: deadline shedding,
retry backoff, breaker half-open probes and pacing need three verbs —
*what time is it*, *wait this long*, *run this later* — and none of
them cares whether the seconds are simulated or real.  An ORB exposes
one as ``orb.time_source``: by default a :class:`SimClock` over the
world's clock and kernel; the sockets backend installs
:class:`repro.rt.clock.MonotonicClock` and the same QoS code runs on
wall-clock time.
"""

from __future__ import annotations

from typing import Any, Callable


class ClockError(Exception):
    """Raised on invalid clock manipulation (e.g. moving backwards)."""


class Clock:
    """A monotonically advancing logical clock.

    >>> clock = Clock()
    >>> clock.now
    0.0
    >>> clock.advance(1.5)
    1.5
    >>> clock.advance_to(2.0)
    2.0
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ClockError(f"clock cannot start before zero: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Advance the clock by ``delta`` seconds and return the new time."""
        if delta < 0.0:
            raise ClockError(f"cannot advance by a negative delta: {delta}")
        self._now += delta
        return self._now

    def advance_to(self, instant: float) -> float:
        """Advance the clock to ``instant``; no-op if already past it.

        Returns the (possibly unchanged) current time.  Moving *to* a
        past instant is tolerated because concurrent flows modelled
        analytically may complete out of order; the clock simply never
        goes backwards.
        """
        if instant > self._now:
            self._now = float(instant)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(now={self._now:.6f})"


class TimeSource:
    """Protocol: the time surface QoS concerns are allowed to touch."""

    def now(self) -> float:
        """Current time in seconds (origin is implementation-defined)."""
        raise NotImplementedError

    def wait(self, seconds: float) -> float:
        """Block the caller for ``seconds``; returns the new now()."""
        raise NotImplementedError

    def wait_until(self, instant: float) -> float:
        """Block until ``instant`` (no-op if already past); returns now()."""
        raise NotImplementedError

    def schedule_after(self, delay: float, fn: Callable[..., Any], *args: Any):
        """Run ``fn(*args)`` after ``delay`` seconds; returns a cancellable."""
        raise NotImplementedError


class SimClock(TimeSource):
    """The logical :class:`Clock` and its event kernel as a TimeSource.

    ``wait``/``wait_until`` are ``clock.advance``/``advance_to``, so
    simulated runs stay deterministic to the tick.
    """

    __slots__ = ("_clock", "_kernel")

    def __init__(self, clock: Any = None, kernel: Any = None) -> None:
        if clock is None:
            if kernel is None:
                raise ValueError("SimClock needs a netsim clock or a kernel")
            clock = kernel.clock
        self._clock = clock
        self._kernel = kernel

    def now(self) -> float:
        return self._clock.now

    def wait(self, seconds: float) -> float:
        if seconds > 0.0:
            self._clock.advance(seconds)
        return self._clock.now

    def wait_until(self, instant: float) -> float:
        self._clock.advance_to(instant)
        return self._clock.now

    def schedule_after(self, delay: float, fn: Callable[..., Any], *args: Any):
        if self._kernel is None:
            raise RuntimeError("this SimClock has no event kernel to schedule on")
        return self._kernel.schedule(delay, fn, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._clock.now:.6f})"
