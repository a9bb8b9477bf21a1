"""Sockets behind the transport seam: framed GIOP over asyncio TCP.

:class:`AsyncioTransport` implements :class:`repro.orb.transport.Transport`
(the seam and its failure contract are documented there) against
:class:`repro.rt.server.RtServer` peers.  It owns the logical-host →
``(ip, port)`` map, one cached :class:`RtConnection` per host and a
background asyncio event loop, so the synchronous ORB above it is
unchanged; every instant is read from its
:class:`~repro.netsim.clock.TimeSource`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.netsim.clock import TimeSource
from repro.orb.exceptions import COMM_FAILURE, SystemException, mark_unexecuted
from repro.orb.transport import Leg, LegOutcome, Transport
from repro.orb.transport import NetsimTransport  # noqa: F401  (frozen bench/spans.py:200 wraps it under this module's name)
from repro.perf.counters import COUNTERS
from repro.rt.clock import MonotonicClock
from repro.rt.framing import FrameDecoder, encode_frame


class RtConnection:
    """One framed-GIOP TCP connection, driven from synchronous code.

    The wire contract is strict request/reply alternation per frame:
    the server answers *every* frame — oneway requests get their reply
    frame back as a transport-level acknowledgement the client
    discards — so per-connection FIFO framing can never desynchronise.
    Pipelined windows write N frames back-to-back and then collect N
    replies; GIOP request ids do the correlation above this layer.
    """

    __slots__ = ("_transport", "_reader", "_writer", "_decoder", "_ready", "peername")

    def __init__(self, transport: "AsyncioTransport", reader, writer) -> None:
        self._transport = transport
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder()
        #: Frames received but not yet consumed (pipelining).
        self._ready: Deque[bytes] = deque()
        self.peername = writer.get_extra_info("peername")

    # -- synchronous surface ---------------------------------------------

    def round_trip(self, wire: bytes) -> bytes:
        """Send one frame, wait for its reply frame."""
        return self._transport.call(self._round_trip(wire))

    def round_trip_many(self, wires: List[bytes]) -> List[bytes]:
        """Send a window of frames back-to-back, then collect replies."""
        return self._transport.call(self._round_trip_many(wires))

    def timed_serial(self, wires: List[bytes]) -> Tuple[List[bytes], float]:
        """Strict request/reply loop timed entirely on the loop thread.

        Benchmarks use this so the per-call cost measured is sockets
        and the ORB, not cross-thread future wakeups.
        """
        return self._transport.call(self._timed(wires, pipelined=False))

    def timed_pipelined(self, wires: List[bytes]) -> Tuple[List[bytes], float]:
        """Windowed send-all-then-drain loop timed on the loop thread."""
        return self._transport.call(self._timed(wires, pipelined=True))

    def close(self) -> None:
        self._transport.call(self._close())

    # -- coroutines -------------------------------------------------------

    async def _send(self, wire: bytes) -> None:
        frame = encode_frame(wire)
        self._writer.write(frame)
        COUNTERS.rt_frames_out += 1
        COUNTERS.rt_bytes_out += len(frame)
        await self._writer.drain()

    async def _recv(self) -> bytes:
        while not self._ready:
            chunk = await self._reader.read(65536)
            if not chunk:
                raise COMM_FAILURE("connection closed by peer")
            COUNTERS.rt_bytes_in += len(chunk)
            frames = self._decoder.feed(chunk)
            COUNTERS.rt_frames_in += len(frames)
            self._ready.extend(frames)
        return self._ready.popleft()

    async def _round_trip(self, wire: bytes) -> bytes:
        try:
            await self._send(wire)
            return await self._recv()
        except (ConnectionError, OSError) as error:
            raise COMM_FAILURE(f"rt transport failed: {error}") from None

    async def _round_trip_many(self, wires: List[bytes]) -> List[bytes]:
        try:
            writer = self._writer
            nbytes = 0
            for wire in wires:
                frame = encode_frame(wire)
                writer.write(frame)
                nbytes += len(frame)
            COUNTERS.rt_frames_out += len(wires)
            COUNTERS.rt_bytes_out += nbytes
            await writer.drain()
            return [await self._recv() for _ in wires]
        except (ConnectionError, OSError) as error:
            raise COMM_FAILURE(f"rt transport failed: {error}") from None

    async def _timed(
        self, wires: List[bytes], pipelined: bool
    ) -> Tuple[List[bytes], float]:
        import time

        start = time.perf_counter()
        if pipelined:
            replies = await self._round_trip_many(wires)
        else:
            replies = []
            for wire in wires:
                replies.append(await self._round_trip(wire))
        return replies, time.perf_counter() - start

    async def _close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


class AsyncioTransport(Transport):
    """Framed GIOP over TCP to the RtServer behind each logical host.

    IORs keep the *logical* host names their serving POA minted
    ("server", "s2", ...); :attr:`addresses` maps each to the real
    ``(ip, port)`` — deliberately outside the reference, so the encoded
    request bytes are the same on every substrate.  One connection per
    host is dialled on first use and dropped on any failure, so the
    next call redials instead of reading a stale stream.

    Owns one asyncio loop on a daemon thread; synchronous callers
    submit coroutines through :meth:`call`.
    """

    def __init__(
        self,
        addresses: Optional[Dict[str, Tuple[str, int]]] = None,
        clock: Optional[TimeSource] = None,
    ) -> None:
        self.addresses: Dict[str, Tuple[str, int]] = dict(addresses or {})
        self.clock = clock if clock is not None else MonotonicClock()
        self._connections: Dict[str, RtConnection] = {}
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="rt-transport", daemon=True
        )
        self._thread.start()
        self._closed = False

    def call(self, coro, timeout: Optional[float] = 30.0):
        """Run ``coro`` on the transport loop; return its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            # The peer may still answer, so the stream cannot be reused
            # (callers drop the connection) and nobody may be left
            # waiting on it.  Unmarked: the request may have executed.
            future.cancel()
            raise COMM_FAILURE(f"no answer within {timeout}s") from None

    # -- connections ------------------------------------------------------

    def connection(self, logical_host: str) -> RtConnection:
        """The cached connection to ``logical_host``, dialled on demand.

        Failing to get one is a forward-leg failure: marked unexecuted.
        """
        connection = self._connections.get(logical_host)
        if connection is None:
            try:
                host, port = self.addresses[logical_host]
            except KeyError:
                raise mark_unexecuted(
                    COMM_FAILURE(f"no address registered for {logical_host!r}")
                ) from None
            try:
                reader, writer = self.call(asyncio.open_connection(host, port), 10.0)
            except (OSError, COMM_FAILURE) as error:
                raise mark_unexecuted(
                    COMM_FAILURE(f"cannot connect to {host}:{port}: {error}")
                ) from None
            COUNTERS.rt_connections += 1
            connection = RtConnection(self, reader, writer)
            self._connections[logical_host] = connection
        return connection

    def _drop(self, logical_host: str) -> None:
        connection = self._connections.pop(logical_host, None)
        if connection is not None:
            connection.close()

    # -- the seam ---------------------------------------------------------

    def round_trip(
        self,
        dest_host: str,
        wire: bytes,
        depart_time: float,
        reservations: Optional[Dict[int, float]] = None,
    ) -> Tuple[bytes, float]:
        try:
            reply_wire = self.connection(dest_host).round_trip(wire)
        except SystemException:
            self._drop(dest_host)
            raise
        return reply_wire, self.clock.now()

    def one_way(self, dest_host: str, wire: bytes, depart_time: float) -> None:
        # The server answers every frame; reading the ack and
        # discarding it keeps the stream aligned for the next call.
        self.round_trip(dest_host, wire, depart_time)

    def round_trip_many(
        self, dest_host: str, legs: Sequence[Leg]
    ) -> List[LegOutcome]:
        # One stream carries the whole window, so a failure anywhere
        # leaves every leg's fate unknown: they all fail with it.
        try:
            reply_wires = self.connection(dest_host).round_trip_many(
                [wire for wire, _, _ in legs]
            )
        except SystemException as error:
            self._drop(dest_host)
            return [(None, error, self.clock.now())] * len(legs)
        now = self.clock.now()
        return [(reply_wire, None, now) for reply_wire in reply_wires]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for logical_host in list(self._connections):
            self._drop(logical_host)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()

    def __enter__(self) -> "AsyncioTransport":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
