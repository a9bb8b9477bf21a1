"""The invocation interface: Figure 3's dispatch decision tree.

::

                     With QoS?
Invocation ──no──► GIOP/IIOP module
   │
   yes (QoS tag in the IOR)
   ▼
QoS transport ──command?──► transport / target module
   │
   request
   ▼
module assigned to the relationship?  ──no──► GIOP/IIOP module
   │yes
   ▼
assigned QoS module
"""

from __future__ import annotations

from typing import Any

from repro.orb.contexts import RETRY_AFTER_CONTEXT
from repro.orb.exceptions import OVERLOAD, mark_unexecuted
from repro.orb.request import Request


def absorb_reply(orb: "ORB", server_host: str, reply, now: float) -> None:  # noqa: F821
    """Absorb one reply's service contexts into client-side QoS state.

    The server's scheduler piggybacks backpressure hints on the reply;
    record them so pacing mediators can slow down, and re-attach the
    retry-after to a decoded OVERLOAD exception (the wire format only
    carries repo-id/message/minor).  ``now`` is the simulated instant
    the reply becomes known — the current clock for synchronous calls,
    the reply's arrival instant for pipelined ones.
    """
    contexts = reply.service_contexts
    if contexts:
        orb.backpressure.observe_reply(server_host, contexts, now)
        if reply.exception is not None and RETRY_AFTER_CONTEXT in contexts:
            reply.exception.retry_after = contexts[RETRY_AFTER_CONTEXT]
    # OVERLOAD is shed at admission, strictly before servant dispatch;
    # restore the pre-execution flag the wire format cannot carry so
    # reliability retry sees uniform semantics for local and decoded
    # instances alike.
    if isinstance(reply.exception, OVERLOAD):
        mark_unexecuted(reply.exception)


def _complete(orb: "ORB", request: Request, reply) -> Any:  # noqa: F821
    """Absorb reply service contexts, then return/raise the outcome."""
    absorb_reply(orb, request.target.profile.host, reply, orb.time_source.now())
    return reply.value()


def route(orb: "ORB", request: Request):  # noqa: F821
    """Figure 3's module decision alone: which module carries this?

    Commands ride the plain transport to the peer ORB (the receiving
    QoS transport interprets them); so do requests without QoS
    awareness and QoS-aware requests whose binding has no module
    assigned yet — "allow[ing] initial negotiation of a QoS agreement".
    """
    transport = orb.qos_transport
    if request.is_command or not request.target.is_qos_aware:
        return transport.iiop_module
    module = transport.assigned_module(request.target)
    return module if module is not None else transport.iiop_module


def dispatch(orb: "ORB", request: Request) -> Any:  # noqa: F821
    """Route one outgoing request per Figure 3 and return its result."""
    reply = route(orb, request).send_request(orb, request)
    return _complete(orb, request, reply)


def dispatch_deferred(orb: "ORB", request: Request):  # noqa: F821
    """Route one outgoing request per Figure 3, deferred.

    Returns a :class:`~repro.orb.ami.ReplyFuture`.  Plain two-way
    requests join the AMI pipeline of their assigned module's binding;
    traffic that gains nothing from pipelining — commands, oneways,
    modules owning their own delivery (group modules) — runs the
    synchronous path on the spot and comes back as an already-resolved
    future, so ``send_deferred`` is total over the invocation surface.
    """
    ami = orb.ami
    if request.is_command or not request.response_expected:
        return ami.resolved(request, lambda: dispatch(orb, request))
    module = route(orb, request)
    if not module.supports_pipelining:
        return ami.resolved(
            request, lambda: _complete(orb, request, module.send_request(orb, request))
        )
    return ami.submit(request, module)
