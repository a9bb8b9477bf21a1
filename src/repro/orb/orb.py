"""The Object Request Broker.

"The ORB is responsible for locating target objects and delivering
requests" (Section 2.3).  One ORB runs per simulated host.  The client
side routes outgoing requests through the invocation interface of
Figure 3; the server side really parses the bytes that crossed the
simulated wire, unwrapping module envelopes first.

Time model: every message pays a fixed per-hop processing cost plus a
per-byte marshalling cost at each end, the link delays of the network
model in between, module CPU costs for wrap/unwrap, and the servant's
simulated service time (queued FIFO per host).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.netsim.clock import SimClock
from repro.orb import giop, invocation
from repro.orb.ami import AMIEngine, ReplyFuture
from repro.orb.backpressure import Backpressure
from repro.orb.contexts import RETRY_AFTER_CONTEXT
from repro.orb.dii import PseudoObject
from repro.orb.exceptions import COMM_FAILURE, MARSHAL, SystemException, TRANSIENT
from repro.orb.ior import IOR
from repro.orb.modules.base import decode_envelope, encode_envelope, is_envelope
from repro.orb.poa import POA
from repro.orb.qos_transport import QoSTransport
from repro.orb.request import Request, next_request_id
from repro.orb.transport import NetsimTransport
from repro.qidl.repository import GLOBAL_REPOSITORY


class ORB:
    """One object request broker, bound to a simulated host."""

    #: Simulated CPU seconds per marshalled byte (each direction, each end).
    MARSHAL_COST_PER_BYTE = 5e-9
    #: Fixed simulated cost of pushing one message through the ORB core.
    HOP_COST = 2e-6

    def __init__(self, world: "World", host_name: str, port: int = 683):  # noqa: F821
        self.world = world
        self.host_name = host_name
        self.port = port
        self.host = world.network.host(host_name)
        self.poa = POA(self)
        self.qos_transport = QoSTransport(self)
        #: Optional request scheduler (admission control, fair queuing,
        #: overload protection) — see :meth:`install_scheduler`.
        self.scheduler = None
        #: Deferred-invocation engine: reply futures and the pipelined
        #: channels of :mod:`repro.orb.ami`.
        self.ami = AMIEngine(self)
        #: Client-side record of server retry-after hints.
        self.backpressure = Backpressure()
        #: The transport seam: how this broker's outgoing bytes travel.
        self.transport = NetsimTransport(self)
        #: The TimeSource QoS concerns tell time by; None until first
        #: use, then a SimClock over the world's clock unless
        #: :meth:`use_time_source` installed something else.
        self._time_source = None
        self.requests_invoked = 0
        self.requests_received = 0
        self.oneway_failures = 0
        #: Callables invoked as fn(direction, wire) for every message
        #: this ORB receives ("in") or answers ("out") — wiretaps for
        #: tests and tracing, without monkey-patching.
        self._wire_observers = []
        self._initial_references: Dict[str, Any] = {
            "QoSTransport": self.qos_transport.pseudo_object(),
            "InterfaceRepository": GLOBAL_REPOSITORY,
        }

    # -- conveniences -----------------------------------------------------

    @property
    def clock(self):
        return self.world.network.clock

    @property
    def network(self):
        return self.world.network

    @property
    def time_source(self):
        """The :class:`~repro.netsim.clock.TimeSource` this broker tells time by.

        Defaults to a :class:`~repro.netsim.clock.SimClock` over the
        world's clock; the sockets backend installs a
        wall clock (:class:`repro.rt.clock.MonotonicClock`) from above.
        """
        source = self._time_source
        if source is None:
            source = SimClock(self.clock)
            self._time_source = source
        return source

    def use_time_source(self, clock) -> None:
        """Install a different TimeSource (rt server and client do)."""
        self._time_source = clock

    def install_transport(self, transport) -> None:
        """Swap the transport carrying this broker's outgoing bytes."""
        self.transport = transport

    def marshal_cost(self, nbytes: int) -> float:
        """Simulated seconds to push ``nbytes`` through one ORB hop."""
        return self.HOP_COST + nbytes * self.MARSHAL_COST_PER_BYTE

    # -- references -------------------------------------------------------

    def object_to_string(self, ior: IOR) -> str:
        return ior.to_string()

    def string_to_object(self, text: str) -> IOR:
        return IOR.from_string(text)

    def register_initial_reference(self, name: str, obj: Any) -> None:
        self._initial_references[name] = obj

    def resolve_initial_references(self, name: str) -> Any:
        """Bootstrap: "QoSTransport" (pseudo object), "NameService", ..."""
        try:
            return self._initial_references[name]
        except KeyError:
            raise TRANSIENT(f"no initial reference {name!r} registered") from None

    # -- request scheduling ------------------------------------------------

    def install_scheduler(self, policy: str = "wfq", **config: Any):
        """Install a :class:`~repro.sched.scheduler.RequestScheduler`.

        Sits between request receipt and servant dispatch: admission
        control (token buckets + queue-depth limit), the selected
        scheduling policy ("fifo", "priority" or "wfq"), and deadline
        shedding.  Returns the scheduler so callers can define QoS
        classes.  Idempotent per ORB — installing again replaces the
        scheduler wholesale.
        """
        # The one upward import left in repro.orb (PENDING in
        # tests/test_architecture.py): frozen bench/workloads.py calls
        # this method, so the installer cannot move to repro.sched yet.
        from repro.sched.scheduler import RequestScheduler

        self.scheduler = RequestScheduler(self, policy=policy, **config)
        # Negotiation endpoints already active on this POA are control
        # traffic: always admitted, or an overloaded server could never
        # be renegotiated out of its overload.
        for key, servant in self.poa._servants.items():
            if getattr(servant, "_repo_id", "") == "IDL:maqs/Negotiation:1.0":
                self.scheduler.mark_control(key)
        return self.scheduler

    # -- client side --------------------------------------------------------

    def invoke(self, request: Request) -> Any:
        """Issue a request; returns its result or raises its exception."""
        self.requests_invoked += 1
        return invocation.dispatch(self, request)

    def invoke_deferred(self, request: Request) -> ReplyFuture:
        """Issue a request asynchronously; returns its reply future.

        The request joins the AMI pipeline of its binding (see
        :mod:`repro.orb.ami`); ``invoke(r)`` and
        ``invoke_deferred(r).result()`` are behaviourally identical.
        """
        self.requests_invoked += 1
        return invocation.dispatch_deferred(self, request)

    def allocate_request_id(self) -> int:
        """Draw a fresh GIOP request id for a broker-originated message.

        Ids come from the same allocator :class:`Request` construction
        (and therefore the AMI pipeline's correlation map) uses, so a
        LocateRequest in flight can never collide with a pipelined
        service request's id.
        """
        return next_request_id()

    def round_trip(
        self,
        dest_host: str,
        wire: bytes,
        depart_time: float,
        reservations: Optional[Dict[int, float]] = None,
    ) -> Tuple[bytes, float]:
        """Carry a message to ``dest_host`` and its reply back.

        Returns ``(reply_wire, finish_time)``; the caller advances the
        clock, which lets group modules model parallel fan-out.
        Transport failures surface as CORBA system exceptions, with
        forward-leg ones marked *unexecuted* (see the transport seam's
        contract in :mod:`repro.orb.transport`).
        """
        return self.transport.round_trip(dest_host, wire, depart_time, reservations)

    def add_wire_observer(self, observer) -> None:
        """Register a wiretap: called as ``observer(direction, wire)``."""
        self._wire_observers.append(observer)

    def remove_wire_observer(self, observer) -> None:
        self._wire_observers.remove(observer)

    def _observe(self, direction: str, wire: bytes) -> None:
        for observer in self._wire_observers:
            observer(direction, wire)

    def locate(self, ior: IOR) -> bool:
        """GIOP LocateRequest: does the target ORB serve this object?

        Returns False for unknown objects; raises COMM_FAILURE/TRANSIENT
        when the host itself is unreachable.
        """
        request_id = self.allocate_request_id()
        wire = giop.encode_locate_request(request_id, ior.profile.object_key)
        depart = self.time_source.now() + self.marshal_cost(len(wire))
        reply_wire, finish = self.round_trip(ior.profile.host, wire, depart)
        self.time_source.wait_until(finish + self.marshal_cost(len(reply_wire)))
        reply_id, status = giop.decode_locate_reply(reply_wire)
        if reply_id != request_id:
            raise MARSHAL(
                f"LocateReply correlates to request {reply_id}, "
                f"expected {request_id}"
            )
        return status == giop.OBJECT_HERE

    def one_way(self, dest_host: str, wire: bytes, depart_time: float) -> None:
        """Fire-and-forget delivery (oneway operations).

        The message is delivered and processed on the server in its own
        time; the caller is never blocked and never learns the outcome.
        Transport failures are swallowed (CORBA oneway is best-effort)
        but counted — here, so every transport behaves the same.
        """
        try:
            self.transport.one_way(dest_host, wire, depart_time)
        except (COMM_FAILURE, TRANSIENT):
            self.oneway_failures += 1

    # -- server side ----------------------------------------------------------

    def handle_incoming(self, wire: bytes, at_time: float) -> Tuple[bytes, float]:
        """Process one incoming message; returns ``(reply_wire, finish_time)``.

        Handles module envelopes, the dual-use command/request split,
        POA delivery, and reply encoding — the server half of Figure 3.
        Wire observers see the message and then its answer, whichever
        branch produced it.
        """
        self.requests_received += 1
        self._observe("in", wire)
        reply_wire, finish = self._serve(wire, at_time)
        self._observe("out", reply_wire)
        return reply_wire, finish

    def _refuse(self, error: Exception, at_time: float) -> Tuple[bytes, float]:
        """Answer a message this broker cannot read or an envelope it
        cannot honour with a bare system exception: request id 0
        (nothing to correlate by) and no module transform on the
        reply."""
        reply = giop.encode_reply(0, exception=error)
        return reply, at_time + self.marshal_cost(len(reply))

    def _serve(self, wire: bytes, at_time: float) -> Tuple[bytes, float]:
        module = None
        envelope_params: Dict[str, Any] = {}
        if is_envelope(wire):
            # Everything in an envelope is the peer's to choose: a bad
            # module, cipher or codec name, a missing session key or a
            # mangled payload is answered, never raised into the
            # transport (where it would take the connection down).
            try:
                module_name, envelope_params, payload = decode_envelope(wire)
                module = self.qos_transport.require_module(module_name)
                wire, cpu = module.unwrap(envelope_params, payload)
            except SystemException as error:
                return self._refuse(error, at_time)
            except Exception as error:  # a transform choking on peer bytes
                return self._refuse(
                    MARSHAL(f"cannot unwrap envelope: {error}"), at_time
                )
            at_time += cpu
            module.requests_served += 1
        at_time += self.marshal_cost(len(wire))

        # The GIOP body is the peer's too: a malformed one is answered
        # like a bad envelope, so a socket connection outlives it.
        try:
            if giop.message_type(wire) == giop.MSG_LOCATE_REQUEST:
                request_id, object_key = giop.decode_locate_request(wire)
                status = (
                    giop.OBJECT_HERE
                    if object_key in self.poa.active_keys()
                    else giop.UNKNOWN_OBJECT
                )
                reply = giop.encode_locate_reply(request_id, status)
                return reply, at_time + self.marshal_cost(len(reply))
            request = giop.decode_request(wire)
        except MARSHAL as error:
            return self._refuse(error, at_time)
        result: Any = None
        exception: Optional[Exception] = None
        reply_contexts: Optional[Dict[str, Any]] = None
        finish = at_time
        try:
            if request.is_command:
                result = self.qos_transport.handle_command(request)
                finish = at_time + self.HOP_COST
            else:
                result, finish, reply_contexts = self.poa.dispatch(request, at_time)
        except Exception as error:  # encoded into the reply, like a real ORB
            exception = error
            finish = at_time
            # Overload rejections carry a retry-after hint; surface it
            # in the reply service contexts so the client-side mediator
            # can observe backpressure without parsing exception text.
            retry_after = getattr(error, "retry_after", None)
            if retry_after is not None:
                reply_contexts = {RETRY_AFTER_CONTEXT: retry_after}

        reply_wire = giop.encode_reply(
            request.request_id, result, exception, service_contexts=reply_contexts
        )
        finish += self.marshal_cost(len(reply_wire))
        if module is not None:
            try:
                params, payload, cpu = module.wrap(reply_wire, dict(envelope_params))
            except SystemException as error:
                # The request's params also steer the reply transform
                # (compression's "requested" codec).
                return self._refuse(error, finish)
            finish += cpu
            reply_wire = encode_envelope(module.name, params, payload)
        return reply_wire, finish

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ORB({self.host_name!r}, objects={len(self.poa.active_keys())})"
