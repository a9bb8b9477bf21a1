"""Real-transport backend: the same ORB over asyncio TCP.

The whole stack above the wire — GIOP/CDR, IORs, the POA, the QoS
transport and its modules, the request scheduler, the reliability
mediator — is substrate-free: it consumes and produces *bytes* and
*instants*.  This package supplies the second substrate the paper's
separation claim has never been tested against:

- :mod:`repro.rt.clock` — the :class:`Clock` protocol with a
  simulated (:class:`SimClock`) and a wall-clock
  (:class:`MonotonicClock`) implementation; everything that used to
  reach for ``EventKernel``'s clock goes through it.
- :mod:`repro.rt.framing` — length-prefixed frames for GIOP messages
  on a byte stream (GIOP headers carry no length), with an
  incremental decoder that tolerates arbitrary partial reads.
- :mod:`repro.rt.transport` — the transport seam: the three-verb
  :class:`Transport` interface (``round_trip``, ``one_way``,
  ``round_trip_many``) and its two implementations,
  :class:`NetsimTransport` over the simulated network and
  :class:`AsyncioTransport` speaking framed GIOP over TCP.
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

from repro.rt.clock import Clock, MonotonicClock, SimClock
from repro.rt.framing import FrameDecoder, FramingError, encode_frame

__all__ = [
    "Clock",
    "MonotonicClock",
    "SimClock",
    "FrameDecoder",
    "FramingError",
    "encode_frame",
]
