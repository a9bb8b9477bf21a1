"""Real-transport backend: the same ORB over asyncio TCP.

The whole stack above the wire — GIOP/CDR, IORs, the POA, the QoS
transport and its modules, the request scheduler, the reliability
mediator — is substrate-free: it consumes and produces *bytes* and
*instants* through two seams the ORB's own layers define,
:class:`repro.orb.transport.Transport` and
:class:`repro.netsim.clock.TimeSource`.  This package holds only the
socket-and-wall-clock side of those seams, the top of the package DAG:

- :mod:`repro.rt.clock` — :class:`MonotonicClock`, the wall-clock
  ``TimeSource``.
- :mod:`repro.rt.framing` — length-prefixed frames for GIOP messages
  on a byte stream (GIOP headers carry no length), with an
  incremental decoder that tolerates arbitrary partial reads.
- :mod:`repro.rt.transport` — :class:`AsyncioTransport`, the
  ``Transport`` speaking framed GIOP over TCP, and its
  :class:`RtConnection`.
- :mod:`repro.rt.server` / :mod:`repro.rt.client` — the asyncio
  event-loop runner hosting an ordinary ORB on wall-clock time, and
  the client: the same ordinary ORB with ``AsyncioTransport``
  installed, so stubs, mediators, modules and AMI windows run
  unchanged over sockets.
- :mod:`repro.rt.harness` — spawn real server/client OS processes and
  collect their results.
- :mod:`repro.rt.scenarios` / :mod:`repro.rt.conformance` — recorded
  scenarios replayed through the same client code on both transports,
  asserting byte-identical wire traffic and equivalent QoS outcomes;
  netsim stays the deterministic oracle for the real thing.
"""

from repro.rt.clock import MonotonicClock
from repro.rt.framing import FrameDecoder, FramingError, encode_frame

__all__ = [
    "MonotonicClock",
    "FrameDecoder",
    "FramingError",
    "encode_frame",
]
