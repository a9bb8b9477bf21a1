"""The transport seam: how request bytes reach their destination.

:class:`Transport` is the narrow interface the ORB's client side binds
against; everything above it (modules, scheduler, mediators, AMI) is
substrate-free.  It has three verbs — :meth:`~Transport.round_trip`,
:meth:`~Transport.one_way` and :meth:`~Transport.round_trip_many` — and
two implementations:

- :class:`NetsimTransport` (here; every ORB starts with one) — the
  netsim ``Network`` carries the bytes and the destination ORB is
  invoked in-process; every instant is simulated.
- :class:`repro.rt.transport.AsyncioTransport` — framed GIOP over real
  TCP sockets, installed from above with ``ORB.install_transport``.

An ORB with either installed is a complete client: stubs, mediator
chains, QoS modules and AMI windows run the same code over both.

Failure contract (shared by both, pinned by
``tests/rt/test_transport_seam.py``): failures are CORBA system
exceptions; one on the *forward* leg is marked unexecuted — the
request never reached a live servant, so a retry cannot duplicate an
execution; reply-leg failures are ambiguous and stay unmarked.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.netsim.network import HostCrashed, NoRoute, PacketLost
from repro.orb.exceptions import (
    COMM_FAILURE,
    SystemException,
    TRANSIENT,
    mark_unexecuted,
)

#: One message of a pipelined window: ``(wire, depart_time, reservations)``.
Leg = Tuple[bytes, float, Optional[Dict[int, float]]]
#: What became of it: ``(reply_wire, None, finish_time)``, or
#: ``(None, error, known_at)`` — the instant the failure became known.
LegOutcome = Tuple[Optional[bytes], Optional[SystemException], float]


class Transport:
    """What the ORB needs from a wire: three ways to cross it."""

    def round_trip(
        self,
        dest_host: str,
        wire: bytes,
        depart_time: float,
        reservations: Optional[Dict[int, float]] = None,
    ) -> Tuple[bytes, float]:
        """Full exchange; returns ``(reply_wire, finish_time)``."""
        raise NotImplementedError

    def one_way(self, dest_host: str, wire: bytes, depart_time: float) -> None:
        """Deliver without waiting for an outcome.

        Raises like :meth:`round_trip` when delivery fails;
        ``ORB.one_way`` swallows and counts that (CORBA oneway is
        best-effort), so the policy lives in one place.
        """
        raise NotImplementedError

    def round_trip_many(
        self, dest_host: str, legs: Sequence[Leg]
    ) -> Iterable[LegOutcome]:
        """A pipelined window: no leg waits for an earlier leg's reply.

        Never raises for a failed leg — gives one outcome per leg, in
        order, so a fault mid-window fails only the legs it hit.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""


class NetsimTransport(Transport):
    """The simulated substrate: netsim links, in-process peer ORBs."""

    __slots__ = ("orb",)

    def __init__(self, orb: Any) -> None:
        self.orb = orb

    def send_leg(
        self,
        dest_host: str,
        nbytes: int,
        reservations: Optional[Dict[int, float]] = None,
        forward: bool = True,
    ) -> float:
        """Carry ``nbytes`` one way; returns the transit delay."""
        orb = self.orb
        src, dst = (
            (orb.host_name, dest_host) if forward else (dest_host, orb.host_name)
        )
        try:
            return orb.network.send(src, dst, nbytes, reservations)
        except HostCrashed as error:
            failure = COMM_FAILURE(str(error))
        except (NoRoute, PacketLost) as error:
            failure = TRANSIENT(str(error))
        raise (mark_unexecuted(failure) if forward else failure) from None

    def peer(self, dest_host: str) -> Any:
        """The ORB that will process bytes sent to ``dest_host``."""
        try:
            return self.orb.world.orb_at(dest_host)
        except COMM_FAILURE as error:
            raise mark_unexecuted(error) from None

    def round_trip(
        self,
        dest_host: str,
        wire: bytes,
        depart_time: float,
        reservations: Optional[Dict[int, float]] = None,
    ) -> Tuple[bytes, float]:
        delay = self.send_leg(dest_host, len(wire), reservations)
        server = self.peer(dest_host)
        reply_wire, finish = server.handle_incoming(wire, depart_time + delay)
        back = self.send_leg(dest_host, len(reply_wire), reservations, forward=False)
        return reply_wire, finish + back

    def one_way(self, dest_host: str, wire: bytes, depart_time: float) -> None:
        delay = self.send_leg(dest_host, len(wire))
        self.peer(dest_host).handle_incoming(wire, depart_time + delay)

    def round_trip_many(
        self, dest_host: str, legs: Sequence[Leg]
    ) -> Iterable[LegOutcome]:
        # Each message crosses on its own and the server processes them
        # in overlapping simulated time.  Outcomes are yielded one by
        # one: what the caller does about a failed leg (a reliability
        # replay draws on the same links) happens before the next leg
        # departs, which seeded runs depend on.  A failure is known at
        # the instant the leg it hit would have ended: departure for
        # the forward link, arrival for a missing peer or a refused
        # message, the server's finish for the reply link.
        for wire, depart_time, reservations in legs:
            known_at = depart_time
            try:
                known_at += self.send_leg(dest_host, len(wire), reservations)
                server = self.peer(dest_host)
                reply_wire, known_at = server.handle_incoming(wire, known_at)
                back = self.send_leg(
                    dest_host, len(reply_wire), reservations, forward=False
                )
            except SystemException as error:
                yield None, error, known_at
            else:
                yield reply_wire, None, known_at + back
