"""RtClient: an ordinary ORB whose bytes travel over real sockets.

A sockets client is not a second invocation path.  It is the ORB every
netsim host runs, with :class:`~repro.rt.transport.AsyncioTransport`
installed where :class:`~repro.orb.transport.NetsimTransport` was and a
wall clock as its time source — so stubs, mediator chains, QoS modules
and AMI windows bound to :attr:`RtClient.orb` run unchanged, and the
bytes they produce are the ones the simulator carries (the conformance
suite asserts it).  This class only builds that ORB and forwards a few
calls to it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.netsim.clock import TimeSource
from repro.orb.giop import Reply
from repro.orb.ior import IOR
from repro.orb.request import Request, command as make_command
from repro.rt.clock import MonotonicClock
from repro.rt.server import make_rt_orb
from repro.rt.transport import AsyncioTransport, RtConnection


class RtClient:
    """Handle on one sockets-client ORB; ``addresses`` maps each logical
    IOR host name to the real ``(ip, port)`` its RtServer listens on."""

    def __init__(
        self,
        addresses: Optional[Dict[str, Tuple[str, int]]] = None,
        clock: Optional[TimeSource] = None,
    ) -> None:
        clock = clock if clock is not None else MonotonicClock()
        self.transport = AsyncioTransport(addresses, clock)
        #: Bind stubs and mediators to this, as on any netsim host.
        self.orb = make_rt_orb("client")
        self.orb.install_transport(self.transport)
        self.orb.use_time_source(clock)
        # The ORB models its own CPU cost in simulated seconds.  On
        # wall time that cost is paid for real, and a modelled 2 us
        # would become a real sleep before every reply.
        self.orb.HOP_COST = self.orb.MARSHAL_COST_PER_BYTE = 0.0

    def invoke(self, request: Request) -> Any:
        """Issue one request; return its result or raise its exception."""
        return self.orb.invoke(request)

    def outcome(self, request: Request) -> Reply:
        """Issue one request; return the decoded reply object."""
        return self.orb.invoke_deferred(request).reply()

    def invoke_window(self, requests: List[Request]) -> List[Reply]:
        """Pipelined window: write every request, then drain the replies."""
        futures = [self.orb.invoke_deferred(request) for request in requests]
        self.orb.ami.flush()
        return [future.reply() for future in futures]

    def command(
        self, target: IOR, command_target: str, operation: str, *args: Any
    ) -> Any:
        """Issue a module/transport command to the serving ORB."""
        return self.orb.invoke(make_command(target, command_target, operation, *args))

    def locate(self, ior: IOR) -> bool:
        """GIOP LocateRequest over the socket."""
        return self.orb.locate(ior)

    def assign(self, target: IOR, module_name: str) -> str:
        """Assign a QoS module to the relationship with ``target``."""
        return self.orb.qos_transport.assign(target, module_name)

    def module(self, name: str) -> Any:
        """The client-side instance of a QoS module, loaded on demand."""
        return self.orb.qos_transport.require_module(name)

    def connection(self, logical_host: str) -> RtConnection:
        """The framed connection to one host (benchmarks time on it)."""
        return self.transport.connection(logical_host)

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "RtClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
