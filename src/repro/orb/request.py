"""The dual-use request.

Section 4: "The CORBA request is used in a dual fashion.  Naturally,
it is used to transport a service-request from the client to the
server.  It is also used to configure and control the QoS mechanisms
and the QoS transport in the ORB.  The request is tagged, indicating
whether it is used as a command or a request."

A :class:`Request` therefore carries a ``kind`` tag (:data:`REQUEST`
or :data:`COMMAND`) and, for commands, the ``command_target`` — either
the literal ``"transport"`` or the name of a QoS module — matching the
"target member of the request" in the paper.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, Tuple

from repro.orb.ior import IOR

#: Tag: an ordinary service request for the target object.
REQUEST = "request"
#: Tag: a command interpreted by the QoS transport or one of its modules.
COMMAND = "command"

#: ``command_target`` value addressing the QoS transport itself.
TRANSPORT_TARGET = "transport"

_request_ids = itertools.count(1)


def next_request_id() -> int:
    """Draw the next id from the shared request-id allocator.

    Every :class:`Request` and every GIOP message the ORB originates
    itself (LocateRequest, the AMI pipeline) draws from this one
    sequence, so reply correlation by ``request_id`` can never collide
    across message kinds in flight on the same binding.
    """
    return next(_request_ids)


def reset_request_ids(start: int = 1) -> None:
    """Restart the shared id sequence (deterministic replay only).

    Tests and benchmarks that compare two separately built worlds
    byte-for-byte call this between runs so both draw the same ids —
    the id is part of the encoded request, so without it the wire
    bytes of otherwise identical runs differ.
    """
    global _request_ids
    _request_ids = itertools.count(start)


class Request:
    """One invocation travelling through the ORB.

    ``service_contexts`` is the CORBA service-context list modelled as
    a string-keyed map; MAQS uses it to piggyback the negotiated
    characteristic on service requests.
    """

    __slots__ = (
        "request_id",
        "target",
        "operation",
        "args",
        "kind",
        "command_target",
        "service_contexts",
        "response_expected",
    )

    def __init__(
        self,
        target: IOR,
        operation: str,
        args: Tuple[Any, ...] = (),
        kind: str = REQUEST,
        command_target: Optional[str] = None,
        service_contexts: Optional[Dict[str, Any]] = None,
        response_expected: bool = True,
        request_id: Optional[int] = None,
    ) -> None:
        if kind not in (REQUEST, COMMAND):
            raise ValueError(f"kind must be {REQUEST!r} or {COMMAND!r}: {kind!r}")
        if kind == COMMAND and not command_target:
            raise ValueError("a command must name its target (transport or module)")
        if kind == REQUEST and command_target is not None:
            raise ValueError("a service request must not name a command target")
        # An explicit id means the request is a *decoded copy* of one
        # already in flight (the server's half); only originals draw
        # from the shared allocator — decoding must never perturb it.
        self.request_id = next_request_id() if request_id is None else request_id
        self.target = target
        self.operation = operation
        self.args = tuple(args)
        self.kind = kind
        self.command_target = command_target
        self.service_contexts = dict(service_contexts or {})
        self.response_expected = response_expected

    @property
    def is_command(self) -> bool:
        return self.kind == COMMAND

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_command:
            return (
                f"Request(#{self.request_id} COMMAND {self.operation!r} "
                f"-> {self.command_target!r})"
            )
        return (
            f"Request(#{self.request_id} {self.operation!r} "
            f"-> {self.target.profile.object_key!r})"
        )


def command(
    target: IOR,
    command_target: str,
    operation: str,
    *args: Any,
    service_contexts: Optional[Dict[str, Any]] = None,
) -> Request:
    """Convenience constructor for a module/transport command."""
    return Request(
        target,
        operation,
        args,
        kind=COMMAND,
        command_target=command_target,
        service_contexts=service_contexts,
    )
