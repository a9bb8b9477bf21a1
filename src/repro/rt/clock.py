"""Wall-clock time behind the :class:`~repro.netsim.clock.TimeSource` protocol.

The sockets backend installs a :class:`MonotonicClock` on its ORBs
(``ORB.use_time_source``) and on :class:`~repro.rt.transport.AsyncioTransport`;
this is the only module under ``src/repro`` that reads or sleeps on
the host's clock (``tests/test_architecture.py`` pins that).  Like
every TimeSource it only tells time and waits; it starts no timer
threads.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.netsim.clock import TimeSource


class MonotonicClock(TimeSource):
    """Wall-clock time, origin-shifted so a fresh clock starts near 0.

    Built on ``time.monotonic`` (immune to NTP steps); ``wait`` really
    sleeps.  The epoch shift keeps instants in the same small-positive
    range the simulated clock produces, so deadlines and retry-after
    arithmetic behave identically on both substrates.
    """

    __slots__ = ("_origin",)

    def __init__(self, origin: Optional[float] = None) -> None:
        self._origin = time.monotonic() if origin is None else origin

    def now(self) -> float:
        return time.monotonic() - self._origin

    def wait(self, seconds: float) -> float:
        if seconds > 0.0:
            time.sleep(seconds)
        return self.now()

    def wait_until(self, instant: float) -> float:
        remaining = instant - self.now()
        if remaining > 0.0:
            time.sleep(remaining)
        return self.now()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MonotonicClock(now={self.now():.6f})"
