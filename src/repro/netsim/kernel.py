"""Discrete-event kernel.

Drives open-loop workloads, fault schedules, resource-availability
traces and periodic services (monitoring probes, push updates).  The
kernel owns a :class:`~repro.netsim.clock.Clock` — executing an event
advances the clock to the event's due time, after which the event
callback may advance it further (e.g. by performing a synchronous
invocation whose costs are modelled on the same clock).

Hot-path layout (the kernel drains hundreds of thousands of events per
scenario, so the drain loop is tuned):

- the heap stores ``(time, seq, event)`` tuples, not the events
  themselves, so every ``heappop`` sift comparison is a C-level tuple
  compare — a 200k-event drain used to spend most of its time in 3.3M
  Python-level event comparisons.  ``seq`` is unique, so no comparison
  ever reaches the event, which therefore defines no ordering;
- ``run``/``run_until`` drain inline with the pop, the cancelled check
  and the clock advance in one loop body instead of a ``step()`` call
  per event;
- heap compaction rewrites the queue list *in place* so the local
  aliases the drain loops hold stay valid across a mid-run compaction.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.netsim.clock import Clock


class KernelError(Exception):
    """Raised on invalid scheduling requests."""


#: Shared no-argument singletons.  A million-event run would otherwise
#: allocate a million empty dicts; every argument-less event now points
#: at the same two objects.  They must never be mutated — the kernel
#: only ever splats them into the callback.
_NO_ARGS: Tuple[Any, ...] = ()
_NO_KWARGS: dict = {}


class Event:
    """A scheduled callback.  Returned by :meth:`EventKernel.schedule`."""

    __slots__ = ("time", "seq", "fn", "args", "kwargs", "cancelled", "label",
                 "kernel")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: dict,
        label: str,
        kernel: "Optional[EventKernel]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.label = label
        self.kernel = kernel

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once.

        Cancellation is lazy: the event stays in the heap and is
        discarded when it surfaces, but the kernel counts cancellations
        and compacts the heap when dead entries dominate, so cancelled
        events never churn the pop loop.
        """
        if not self.cancelled:
            self.cancelled = True
            if self.kernel is not None:
                self.kernel._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event({self.label!r} at {self.time:.6f}, {state})"


class EventKernel:
    """A classic calendar-queue discrete-event scheduler.

    Events due at the same instant fire in scheduling order, which keeps
    runs bit-for-bit reproducible.

    >>> kernel = EventKernel()
    >>> fired = []
    >>> _ = kernel.schedule(2.0, fired.append, "b")
    >>> _ = kernel.schedule(1.0, fired.append, "a")
    >>> kernel.run()
    >>> fired
    ['a', 'b']
    """

    #: Compact the heap once this many cancelled events accumulate and
    #: they outnumber the live ones.
    COMPACT_THRESHOLD = 64

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        #: Heap of ``(time, seq, event)`` — see the module docstring.
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._events_fired = 0
        self._cancelled_pending = 0
        self._cancelled_peak = 0
        self._compactions = 0
        self._live_peak = 0

    @property
    def events_fired(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    @property
    def pending_live(self) -> int:
        """Number of queued events that have not been cancelled."""
        return len(self._queue) - self._cancelled_pending

    @property
    def live_peak(self) -> int:
        """High-water mark of simultaneously queued live events."""
        return self._live_peak

    @property
    def compactions(self) -> int:
        """Number of lazy-deletion heap compactions performed."""
        return self._compactions

    @property
    def cancelled_peak(self) -> int:
        """High-water mark of cancelled events sitting in the heap."""
        return self._cancelled_peak

    def stats(self) -> dict:
        """Kernel instrument panel (merged into :func:`repro.perf.snapshot`)."""
        return {
            "events_fired": self._events_fired,
            "pending": len(self._queue),
            "pending_live": self.pending_live,
            "live_peak": self._live_peak,
            "compactions": self._compactions,
            "cancelled_pending": self._cancelled_pending,
            "cancelled_peak": self._cancelled_peak,
        }

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if not delay >= 0.0:
            raise KernelError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.clock.now + delay, fn, *args, label=label, **kwargs)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn`` at an absolute simulated time."""
        if not time >= self.clock.now:
            raise KernelError(
                f"cannot schedule at {time} before current time {self.clock.now}"
            )
        seq = next(self._seq)
        event = Event(
            time,
            seq,
            fn,
            args if args else _NO_ARGS,
            kwargs if kwargs else _NO_KWARGS,
            label or fn.__name__,
            self,
        )
        heapq.heappush(self._queue, (time, seq, event))
        live = len(self._queue) - self._cancelled_pending
        if live > self._live_peak:
            self._live_peak = live
        return event

    def _note_cancelled(self) -> None:
        """Lazy-deletion bookkeeping: compact when dead entries dominate."""
        self._cancelled_pending += 1
        if self._cancelled_pending > self._cancelled_peak:
            self._cancelled_peak = self._cancelled_pending
        if (
            self._cancelled_pending >= self.COMPACT_THRESHOLD
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            # In-place rewrite: the drain loops alias self._queue, so
            # the list object must survive the compaction.
            queue = self._queue
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)
            self._cancelled_pending = 0
            self._compactions += 1

    def _push_bulk(self, entries: List[Tuple[float, int, Event]]) -> None:
        """Merge a pre-built batch into the heap.

        When the existing queue is empty or small relative to the batch
        a single ``heapify`` over the concatenation is O(n + m); the
        per-event ``heappush`` loop it replaces is O(m log(n + m)).
        Large queues fall back to pushes so a tiny batch never pays a
        full re-heapify of a million-entry heap.
        """
        queue = self._queue
        if len(queue) <= len(entries):
            queue.extend(entries)
            heapq.heapify(queue)
        else:
            for entry in entries:
                heapq.heappush(queue, entry)
        live = len(queue) - self._cancelled_pending
        if live > self._live_peak:
            self._live_peak = live

    def schedule_many(
        self,
        times: Iterable[float],
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> List[Event]:
        """Schedule ``fn(*args)`` at every absolute time in ``times``.

        The bulk fast path for arrival-process generators: events are
        built first and merged with one ``heapify`` when the queue is
        cold (see :meth:`_push_bulk`).  ``times`` need not be sorted.
        """
        now = self.clock.now
        shared_args = args if args else _NO_ARGS
        name = label or fn.__name__
        next_seq = self._seq.__next__
        events: List[Event] = []
        entries: List[Tuple[float, int, Event]] = []
        for time in times:
            if not time >= now:
                raise KernelError(
                    f"cannot schedule at {time} before current time {now}"
                )
            seq = next_seq()
            event = Event(time, seq, fn, shared_args, _NO_KWARGS, name, self)
            events.append(event)
            entries.append((time, seq, event))
        self._push_bulk(entries)
        return events

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if the queue is empty."""
        queue = self._queue
        while queue:
            time, _seq, event = heapq.heappop(queue)
            if event.cancelled:
                if self._cancelled_pending:
                    self._cancelled_pending -= 1
                continue
            self.clock.advance_to(time)
            event.fn(*event.args, **event.kwargs)
            self._events_fired += 1
            return True
        return False

    def run(self, max_events: int = 10_000_000) -> int:
        """Fire events until the queue drains.  Returns events fired."""
        queue = self._queue
        pop = heapq.heappop
        advance_to = self.clock.advance_to
        fired = 0
        try:
            while queue:
                time, _seq, event = pop(queue)
                if event.cancelled:
                    if self._cancelled_pending:
                        self._cancelled_pending -= 1
                    continue
                advance_to(time)
                event.fn(*event.args, **event.kwargs)
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

        Returns the number of events fired.
        """
        queue = self._queue
        pop = heapq.heappop
        advance_to = self.clock.advance_to
        fired = 0
        try:
            while queue:
                time, _seq, event = queue[0]
                if event.cancelled:
                    pop(queue)
                    if self._cancelled_pending:
                        self._cancelled_pending -= 1
                    continue
                if time > deadline:
                    break
                pop(queue)
                advance_to(time)
                event.fn(*event.args, **event.kwargs)
                fired += 1
        finally:
            self._events_fired += fired
        self.clock.advance_to(deadline)
        return fired

    def every(
        self,
        period: float,
        fn: Callable[..., Any],
        *args: Any,
        until: Optional[float] = None,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Run ``fn`` periodically, starting one period from now.

        Returns the first :class:`Event`; cancelling it stops only that
        occurrence, so long-lived services should instead check their
        own shutdown flag.  The recurrence stops automatically once the
        next occurrence would land after ``until``.
        """
        if not period > 0.0:
            raise KernelError(f"period must be positive: {period}")

        def tick() -> None:
            fn(*args, **kwargs)
            next_time = self.clock.now + period
            if until is None or next_time <= until:
                self.schedule_at(next_time, tick, label=label or "every")

        return self.schedule(period, tick, label=label or "every")
