"""Discrete-event kernel.

Drives open-loop workloads, fault schedules, resource-availability
traces and periodic services (monitoring probes, push updates).  The
kernel owns a :class:`~repro.netsim.clock.Clock` — executing an event
advances the clock to the event's due time, after which the event
callback may advance it further (e.g. by performing a synchronous
invocation whose costs are modelled on the same clock).

An event is a bare ``(time, seq, fn, args)`` tuple — the shape
:class:`~repro.netsim.parallel.shard.ShardRuntime` drains, minus the
host and handler reference.  There is no event object, no handle and
no cancellation: nothing in the system ever withdrew a scheduled
event, so a recurring service stops through its own flag (as
:class:`~repro.control.loop.ControlLoop` does).  Scheduling takes
positional arguments only and returns ``None``; the args tuple is
stored as passed, so ``schedule_many`` shares one tuple across its
batch.  ``seq`` is unique, so every heap comparison is decided by the
``(time, seq)`` prefix at C level and never reaches the callback.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.netsim.clock import Clock

#: One queued event: ``(time, seq, fn, args)``.
Entry = Tuple[float, int, Callable[..., Any], Tuple[Any, ...]]


class KernelError(Exception):
    """Raised on invalid scheduling requests."""


class EventKernel:
    """A classic calendar-queue discrete-event scheduler.

    Events due at the same instant fire in scheduling order, which keeps
    runs bit-for-bit reproducible.

    >>> kernel = EventKernel()
    >>> fired = []
    >>> kernel.schedule(2.0, fired.append, "b")
    >>> kernel.schedule(1.0, fired.append, "a")
    >>> kernel.run()
    2
    >>> fired
    ['a', 'b']
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._queue: List[Entry] = []
        self._seq = itertools.count()
        self._events_fired = 0
        self._live_peak = 0

    @property
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    @property
    def live_peak(self) -> int:
        """High-water mark of simultaneously queued events."""
        return self._live_peak

    def stats(self) -> dict:
        """Kernel instrument panel (merged into :func:`repro.perf.snapshot`)."""
        return {
            "events_fired": self._events_fired,
            "pending": len(self._queue),
            "live_peak": self._live_peak,
            # Always 0 (there is no lazy deletion to compact); kept only
            # because the benchmark's kernel_soak workload still reads it.
            "compactions": 0,
        }

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0.0:
            raise KernelError(f"cannot schedule in the past (delay={delay})")
        self.schedule_at(self.clock.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if not time >= self.clock.now:
            raise KernelError(
                f"cannot schedule at {time} before current time {self.clock.now}"
            )
        queue = self._queue
        heapq.heappush(queue, (time, next(self._seq), fn, args))
        if len(queue) > self._live_peak:
            self._live_peak = len(queue)

    def schedule_many(
        self, times: Iterable[float], fn: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule ``fn(*args)`` at every absolute time in ``times``.

        The bulk fast path for arrival-process generators.  ``times``
        need not be sorted.  When the queue is empty or small relative
        to the batch, one ``heapify`` over the concatenation is
        O(n + m); a large queue takes per-event pushes instead, so a
        tiny batch never pays a full re-heapify of a deep heap.
        """
        now = self.clock.now
        next_seq = self._seq.__next__
        entries: List[Entry] = []
        for time in times:
            if not time >= now:
                raise KernelError(
                    f"cannot schedule at {time} before current time {now}"
                )
            entries.append((time, next_seq(), fn, args))
        queue = self._queue
        if len(queue) <= len(entries):
            queue.extend(entries)
            heapq.heapify(queue)
        else:
            for entry in entries:
                heapq.heappush(queue, entry)
        if len(queue) > self._live_peak:
            self._live_peak = len(queue)

    def run(self, max_events: int = 10_000_000) -> int:
        """Fire events until the queue drains.  Returns events fired."""
        queue = self._queue
        pop = heapq.heappop
        advance_to = self.clock.advance_to
        fired = 0
        try:
            while queue:
                time, _seq, fn, args = pop(queue)
                advance_to(time)
                fn(*args)
                fired += 1
                if fired >= max_events:
                    break
        finally:
            self._events_fired += fired
        if fired >= max_events and queue:
            raise KernelError(f"run() exceeded max_events={max_events}")
        return fired

    def run_until(self, deadline: float) -> int:
        """Fire all events due at or before ``deadline``; advance the clock to it.

        Returns the number of events fired.  A deadline already in the
        past fires nothing; a NaN deadline is rejected (it used to fire
        the whole queue).
        """
        if not deadline >= 0.0:
            raise KernelError(f"run_until needs a deadline >= 0: {deadline}")
        queue = self._queue
        pop = heapq.heappop
        advance_to = self.clock.advance_to
        fired = 0
        try:
            while queue and queue[0][0] <= deadline:
                time, _seq, fn, args = pop(queue)
                advance_to(time)
                fn(*args)
                fired += 1
        finally:
            self._events_fired += fired
        advance_to(deadline)
        return fired

    def every(
        self,
        period: float,
        fn: Callable[..., Any],
        *args: Any,
        until: Optional[float] = None,
    ) -> None:
        """Run ``fn(*args)`` periodically, starting one period from now.

        The recurrence stops once the next occurrence would land after
        ``until``; without ``until`` it runs as long as the kernel does,
        so a service that must stop earlier checks its own flag.
        """
        if not period > 0.0:
            raise KernelError(f"period must be positive: {period}")

        def tick() -> None:
            fn(*args)
            next_time = self.clock.now + period
            if until is None or next_time <= until:
                self.schedule_at(next_time, tick)

        self.schedule(period, tick)
