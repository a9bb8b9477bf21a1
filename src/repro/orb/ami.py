"""Asynchronous Method Invocation: reply futures and GIOP pipelining.

CORBA's Messaging/AMI model separates *when a call is issued* from
*when its reply is consumed* — invocation mode as a distribution
concern the middleware owns, not the application (the RAFDA argument).
This module adds that layer on the client side:

- :class:`ReplyFuture` — the handle on one deferred invocation:
  poll / result / exception plus an optional completion callback.
  ``invoke`` is exactly ``send_deferred(...).result()``; tests assert
  the equivalence byte-for-byte and clock-tick-for-clock-tick.
- :class:`PipelinedChannel` — one client-side pipeline per
  (module, destination) binding.  Deferred requests are encoded
  immediately and queued; ``flush()`` hands the whole window to the
  transport (``round_trip_many``), so N requests pay the client's
  serialized marshal work plus ~one RTT plus the server's serialized
  service time — instead of the synchronous path's N full round trips.
- :class:`AMIEngine` — the per-ORB owner of the channels, the
  in-flight accounting and the auto-flush window.

Replies are demultiplexed by GIOP ``request_id``: the server's
:class:`~repro.sched.scheduler.RequestScheduler` (priority/WFQ) may
finish requests in a different order than they were sent, so replies
are processed in *completion* order and matched back to their futures
through the correlation map — the map is load-bearing, not cosmetic.

Wire bytes are identical to the synchronous path per message: each
request is GIOP-encoded individually and goes through the module's
``seal`` / ``open``, the two halves of the synchronous
:meth:`~repro.orb.modules.base.QoSModule.exchange`, under the binding
config it was issued with.  Faults mid-window fail the futures the
transport reports failed (on netsim only the legs hit; on one socket
the whole window), with the same CORBA exception types and minors the
synchronous path raises; a reply that cannot be opened or decoded
fails its own future; every queued future is resolved by its flush —
none hangs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.orb import giop
from repro.orb.exceptions import SystemException
from repro.orb.invocation import absorb_reply
from repro.orb.request import Request
from repro.perf.counters import COUNTERS


class ReplyFuture:
    """The client's handle on one deferred invocation.

    Lifecycle: *queued* in a :class:`PipelinedChannel` until the window
    is flushed, then *done* — the simulation knows the outcome, which
    becomes visible to the caller once the clock reaches the reply's
    arrival instant (:meth:`poll`) or the caller waits for it
    (:meth:`result` / :meth:`exception`, which advance the clock).
    """

    __slots__ = (
        "_orb",
        "request_id",
        "dest_host",
        "_channel",
        "_reply",
        "_error",
        "_ready_time",
        "_callbacks",
        "transport_error",
        "_done",
    )

    def __init__(
        self,
        orb: Any,
        request_id: int,
        dest_host: str,
        channel: Optional["PipelinedChannel"] = None,
    ) -> None:
        self._orb = orb
        self.request_id = request_id
        self.dest_host = dest_host
        self._channel = channel
        self._reply: Optional[giop.Reply] = None
        self._error: Optional[Exception] = None
        self._ready_time = 0.0
        self._callbacks: List[Callable[["ReplyFuture"], None]] = []
        #: True when the failure happened in transport (send/receive
        #: legs) rather than travelling as an encoded reply exception.
        self.transport_error = False
        self._done = False

    # -- inspection -------------------------------------------------------

    @property
    def done(self) -> bool:
        """Has the outcome been determined (window flushed)?"""
        return self._done

    @property
    def ready_time(self) -> float:
        """Simulated instant the outcome becomes visible to the caller."""
        return self._ready_time

    @property
    def error(self) -> Optional[Exception]:
        """The recorded exception, without waiting (None until failed)."""
        return self._error

    def poll(self) -> bool:
        """Has the reply arrived by the current simulated time?

        A future still queued in an unflushed window polls False: its
        request has not even departed yet.
        """
        return self._done and self._orb.time_source.now() >= self._ready_time

    # -- consumption ------------------------------------------------------

    def flush(self) -> "ReplyFuture":
        """Force the window this future rides in onto the wire."""
        if not self._done and self._channel is not None:
            self._channel.flush()
        return self

    def result(self) -> Any:
        """Wait (advance the clock) for the reply; return or raise it.

        Flushes the pending window first if needed, so a lone
        ``send_deferred(...).result()`` behaves exactly like the
        synchronous ``invoke`` — same bytes, same simulated timing,
        same exceptions.
        """
        return self.reply().value()

    def reply(self) -> giop.Reply:
        """Like :meth:`result` but returning the decoded reply whole.

        An exception the server sent stays inside it (with the reply's
        service contexts); only a failure that left no reply to return
        — transport, or a locally settled error — is raised.
        """
        self.flush()
        self._orb.time_source.wait_until(self._ready_time)
        if self._reply is None:
            raise self._error
        return self._reply

    def exception(self) -> Optional[Exception]:
        """Like :meth:`result` but returning the exception (or None)."""
        self.flush()
        self._orb.time_source.wait_until(self._ready_time)
        return self._error

    def add_done_callback(
        self, callback: Callable[["ReplyFuture"], None]
    ) -> "ReplyFuture":
        """Call ``callback(future)`` once the outcome is known.

        Fires during flush processing (callback-model AMI); a future
        that is already done fires immediately.
        """
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)
        return self

    # -- completion (called by the channel/engine) ------------------------

    def _resolve(
        self,
        reply: Optional[giop.Reply],
        error: Optional[Exception],
        ready_time: float,
        transport: bool = False,
    ) -> None:
        if self._done:  # defensive: a future resolves exactly once
            return
        channel = self._channel
        self._reply = reply
        self._error = error
        self._ready_time = ready_time
        self.transport_error = transport
        self._done = True
        self._channel = None
        if channel is not None:
            channel.engine._retire(self)
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "queued"
        return f"ReplyFuture(#{self.request_id} -> {self.dest_host!r}, {state})"


class _QueuedCall:
    """One encoded request waiting in a channel's window."""

    __slots__ = ("body", "future", "reservations", "context")

    def __init__(
        self,
        body: bytes,
        future: ReplyFuture,
        reservations: Optional[Dict[int, float]],
        context: Optional[Dict[str, Any]],
    ) -> None:
        self.body = body
        self.future = future
        self.reservations = reservations
        self.context = context


class PipelinedChannel:
    """One client-side request pipeline: a (module, destination) binding.

    Queued requests are already encoded; :meth:`flush` transmits the
    window back-to-back, lets the server process every message in its
    own (overlapping) simulated time, then resolves the futures in
    reply-*completion* order through the request-id correlation map.
    """

    __slots__ = (
        "engine",
        "orb",
        "module",
        "dest_host",
        "_queue",
        "windows_flushed",
        "messages_flushed",
    )

    def __init__(self, engine: "AMIEngine", module: Any, dest_host: str) -> None:
        self.engine = engine
        self.orb = engine.orb
        self.module = module
        self.dest_host = dest_host
        self._queue: List[_QueuedCall] = []
        self.windows_flushed = 0
        self.messages_flushed = 0

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, request: Request, future: ReplyFuture) -> ReplyFuture:
        """Encode ``request`` now and queue it for the next flush.

        Encoding happens at enqueue time so a caller (or mediator)
        that mutates the request afterwards cannot change what was
        issued; everything the flush needs is snapshotted here.
        """
        module = self.module
        body = giop.encode_request(request)
        self._queue.append(
            _QueuedCall(
                body,
                future,
                module.reservations_for(request),
                module.context_for(request) if module.uses_envelope else None,
            )
        )
        return future

    def flush(self) -> int:
        """Put the queued window on the wire; resolve every future.

        Returns the number of requests transmitted.  The client's
        clock advances over its own serialized send work (marshal +
        module CPU); each reply's arrival instant is recorded on its
        future, so completions overlap in simulated time — the whole
        window costs ~one RTT plus the server's serialized service
        time instead of N round trips.
        """
        items, self._queue = self._queue, []
        if not items:
            return 0
        orb = self.orb
        module = self.module
        cursor = orb.time_source.now()
        #: request_id -> future: the reply correlation map.
        pending: Dict[int, ReplyFuture] = {}
        legs: List[Tuple[bytes, float, Optional[Dict[int, float]]]] = []
        for item in items:
            # Each request is sealed with the binding config it was
            # issued under, exactly as the synchronous call would be.
            wire, cursor = module.seal(orb, item.body, item.context, cursor)
            pending[item.future.request_id] = item.future
            legs.append((wire, cursor, item.reservations))
        # How a window crosses the wire is the transport's business
        # (:meth:`Transport.round_trip_many`): simulated links leg by
        # leg, or one socket write and N reads.  Either way it marks
        # forward-leg failures unexecuted (the request never reached a
        # live servant) so reliability replay knows a re-issue cannot
        # duplicate an execution; reply-leg failures stay ambiguous
        # and unmarked.  A failed leg is resolved as soon as the
        # transport reports it.
        arrivals: List[Tuple[float, int, bytes]] = []
        for index, (reply_wire, error, instant) in enumerate(
            orb.transport.round_trip_many(self.dest_host, legs)
        ):
            if error is not None:
                self._fail(items[index].future, error, instant)
            else:
                arrivals.append((instant, index, reply_wire))
        # The caller resumes once its send-side work is done; replies
        # complete in their own (possibly reordered) simulated time.
        orb.time_source.wait_until(cursor)
        # Server-side scheduling (priority/WFQ) may finish later sends
        # first: process replies in completion order and let the
        # correlation map route each to its future.
        arrivals.sort()
        highest_index = -1
        for finish, index, reply_wire in arrivals:
            if index < highest_index:
                COUNTERS.pipeline_out_of_order += 1
            else:
                highest_index = index
            future = items[index].future
            try:
                reply, finish = module.open(orb, reply_wire, finish)
            except SystemException as error:
                # Wrapped by the wrong module, not invertible here, or
                # undecodable: this future fails, the rest of the window
                # goes on.
                self._fail(future, error, finish)
                continue
            # Correlate by request id; replies the server could not
            # even attribute (it answers id 0 when the request is
            # unreadable) fall back to the positional future.
            correlated = pending.get(reply.request_id)
            if correlated is not None:
                future = correlated
            absorb_reply(orb, future.dest_host, reply, finish)
            future._resolve(reply, reply.exception, finish)
            module.requests_sent += 1
        self.windows_flushed += 1
        self.messages_flushed += len(items)
        COUNTERS.pipeline_windows += 1
        COUNTERS.pipeline_messages += len(items)
        return len(items)

    @staticmethod
    def _fail(future: ReplyFuture, error: Exception, known_at: float) -> None:
        future._resolve(None, error, known_at, transport=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PipelinedChannel({self.module.name!r} -> {self.dest_host!r}, "
            f"queued={len(self._queue)})"
        )


class AMIEngine:
    """Per-ORB owner of the pipelined channels and deferred futures."""

    __slots__ = ("orb", "window", "_channels", "inflight", "inflight_peak")

    def __init__(self, orb: Any, window: Optional[int] = None) -> None:
        self.orb = orb
        #: Auto-flush threshold per channel; None = flush explicitly
        #: (or implicitly through ``ReplyFuture.result()``).
        self.window = window
        self._channels: Dict[Tuple[str, str], PipelinedChannel] = {}
        #: Futures submitted but not yet resolved.
        self.inflight = 0
        self.inflight_peak = 0

    # -- channels ---------------------------------------------------------

    @property
    def queued(self) -> int:
        """Requests encoded and waiting in unflushed windows."""
        return sum(len(channel) for channel in self._channels.values())

    def channel_for(self, module: Any, target: Any) -> PipelinedChannel:
        """The pipeline carrying ``target``'s requests through ``module``.

        Envelope modules batch per *binding* (their wrap context is
        binding-scoped); plain transports batch per destination host.
        """
        if module.uses_envelope:
            key = (module.name, target.binding_key())
        else:
            key = (module.name, target.profile.host)
        channel = self._channels.get(key)
        if channel is None:
            channel = PipelinedChannel(self, module, target.profile.host)
            self._channels[key] = channel
        return channel

    def channels(self) -> List[PipelinedChannel]:
        return list(self._channels.values())

    # -- submission -------------------------------------------------------

    def submit(self, request: Request, module: Any) -> ReplyFuture:
        """Queue one deferred request; returns its future.

        Auto-flushes the channel when the configured window fills.
        """
        channel = self.channel_for(module, request.target)
        future = ReplyFuture(
            self.orb, request.request_id, request.target.profile.host, channel
        )
        channel.enqueue(request, future)
        self.inflight += 1
        if self.inflight > self.inflight_peak:
            self.inflight_peak = self.inflight
        COUNTERS.note_inflight(self.inflight)
        if self.window is not None and len(channel) >= self.window:
            channel.flush()
        return future

    def resolved(self, request: Request, outcome: Callable[[], Any]) -> ReplyFuture:
        """A future resolved on the spot by running the synchronous path.

        Used for traffic that gains nothing from pipelining (oneway,
        commands, group-delivery modules): ``outcome`` performs the
        synchronous invocation; its value — or raised system exception
        — becomes the future's immediate result.
        """
        future = ReplyFuture(
            self.orb, request.request_id, request.target.profile.host
        )
        try:
            value = outcome()
        except SystemException as error:
            future._resolve(None, error, self.orb.time_source.now())
        else:
            reply = giop.Reply(request.request_id, {}, value, None)
            future._resolve(reply, None, self.orb.time_source.now())
        return future

    def completed(self, value: Any, dest_host: str = "") -> ReplyFuture:
        """An already-resolved future carrying a locally produced value.

        Request id 0 marks it as never having crossed the wire (a
        mediator cache hit, a suppressed call).
        """
        future = ReplyFuture(self.orb, 0, dest_host)
        future._resolve(
            giop.Reply(0, {}, value, None), None, self.orb.time_source.now()
        )
        return future

    def flush(self) -> int:
        """Flush every channel; returns total requests transmitted."""
        return sum(channel.flush() for channel in self.channels())

    def _retire(self, future: ReplyFuture) -> None:
        self.inflight -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AMIEngine(channels={len(self._channels)}, "
            f"inflight={self.inflight})"
        )
