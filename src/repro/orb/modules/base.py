"""QoS module base class and the module wire envelope.

A module participates in two planes:

- **control plane**: a *static* interface (exposed locally as a pseudo
  object — loading, introspection, statistics) and a *dynamic*
  interface (module-specific operations driven through the DII by
  tagged commands, Figure 3).
- **data plane**: service requests assigned to the module pass through
  :meth:`QoSModule.send_request`; modules that transform the byte
  stream (compression, encryption) override :meth:`wrap` /
  :meth:`unwrap` and their peer module on the receiving ORB undoes the
  transformation.

Transformed messages travel inside an **envelope**::

    b"MQOS" | string module-name | any params | octets payload

so the receiving ORB knows which module must unwrap before GIOP
decoding — the on-the-wire realisation of the paper's module hierarchy.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.orb import giop
from repro.orb.cdr import CDRDecoder, CDREncoder
from repro.orb.dii import PseudoObject
from repro.orb.exceptions import BAD_OPERATION, BAD_PARAM, MARSHAL
from repro.orb.ior import IOR
from repro.orb.request import Request
from repro.perf.counters import COUNTERS

ENVELOPE_MAGIC = b"MQOS"


def encode_envelope(module_name: str, params: Dict[str, Any], payload: bytes) -> bytes:
    """Wrap a transformed message body for the wire."""
    encoder = CDREncoder()
    encoder.write_raw(ENVELOPE_MAGIC)
    encoder.write_string(module_name)
    encoder.write_any(params)
    encoder.write_octets(payload)
    return encoder.getvalue()


def decode_envelope(data: bytes) -> Tuple[str, Dict[str, Any], bytes]:
    """Split an envelope into (module name, params, payload)."""
    decoder = CDRDecoder(data)
    magic = decoder.read_raw(4)
    if magic != ENVELOPE_MAGIC:
        raise MARSHAL(f"not a module envelope: {magic!r}")
    module_name = decoder.read_string()
    params = decoder.read_any()
    if not isinstance(params, dict):
        raise MARSHAL("envelope params must decode to a map")
    payload = decoder.read_octets()
    return module_name, params, payload


def is_envelope(data: bytes) -> bool:
    """Does this wire message carry a module envelope?"""
    return data[:4] == ENVELOPE_MAGIC


def peer_named(lookup: Callable[[Any], Any], name: Any) -> Any:
    """``lookup(name)`` for a codec/cipher name that may be the peer's
    (envelope params): an unknown one is a typed refusal (``BAD_PARAM``),
    not the registry's bare ``ValueError``."""
    try:
        return lookup(name)
    except (ValueError, TypeError) as error:
        raise BAD_PARAM(f"cannot resolve {name!r}: {error}") from None


def binding_key(ior: IOR) -> str:
    """Canonical key naming one client/server relationship."""
    return ior.binding_key()


class QoSModule:
    """Base class of all QoS transport modules."""

    #: Registry name; subclasses must override.
    name = ""
    #: Human description shown by the static interface.
    description = ""
    #: Whether the data path uses the wire envelope (byte transforms).
    uses_envelope = False

    #: Names of operations reachable through the dynamic interface
    #: (module commands).  Each must be a public method on the module.
    dynamic_ops: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.transport: Optional[Any] = None
        self.requests_sent = 0
        self.requests_served = 0
        self.commands_handled = 0
        #: Per-binding configuration set through the dynamic interface.
        self._binding_config: Dict[str, Dict[str, Any]] = {}

    # -- lifecycle (the common static interface) -------------------------

    def on_load(self, transport: Any) -> None:
        """Called by the QoS transport when the module is loaded."""
        self.transport = transport

    def on_unload(self) -> None:
        """Called before the module is discarded."""
        self.transport = None

    @property
    def orb(self) -> Any:
        if self.transport is None:
            raise RuntimeError(f"module {self.name!r} is not loaded")
        return self.transport.orb

    def pseudo_object(self) -> PseudoObject:
        """The static interface, locally accessible like any object."""
        return PseudoObject(
            f"QoSModule:{self.name}",
            {
                "name": lambda: self.name,
                "description": lambda: self.description,
                "dynamic_ops": lambda: sorted(self.dynamic_ops),
                "statistics": self.statistics,
            },
        )

    def statistics(self) -> Dict[str, int]:
        return {
            "requests_sent": self.requests_sent,
            "requests_served": self.requests_served,
            "commands_handled": self.commands_handled,
        }

    # -- binding configuration -------------------------------------------

    def configure_binding(self, binding: str, **settings: Any) -> Dict[str, Any]:
        """Merge settings for one client/server relationship."""
        config = self._binding_config.setdefault(binding, {})
        config.update(settings)
        return dict(config)

    def binding_config(self, binding: str) -> Dict[str, Any]:
        return dict(self._binding_config.get(binding, {}))

    # -- control plane ------------------------------------------------------

    def handle_command(self, request: Request) -> Any:
        """Dispatch a module command to its dynamic interface."""
        if request.operation not in self.dynamic_ops:
            raise BAD_OPERATION(
                f"module {self.name!r} has no dynamic operation "
                f"{request.operation!r}; offers {sorted(self.dynamic_ops)}"
            )
        method = getattr(self, request.operation)
        self.commands_handled += 1
        return method(*request.args)

    # -- data plane -----------------------------------------------------------

    @property
    def supports_pipelining(self) -> bool:
        """Can the AMI pipeline carry this module's requests?

        True for every module riding the default point-to-point
        :meth:`send_request`; modules that replace it wholesale (group
        delivery) own their clock arithmetic, so deferred invocations
        through them fall back to the synchronous path.
        """
        return type(self).send_request is QoSModule.send_request

    def context_for(self, request: Request) -> Dict[str, Any]:
        """Transform parameters for this request's binding."""
        return self.binding_config(binding_key(request.target))

    def reservations_for(self, request: Request) -> Optional[Dict[int, float]]:
        """Per-link reserved rates for this request (None = best effort)."""
        return None

    def wrap(
        self, body: bytes, context: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], bytes, float]:
        """Transform an outgoing message body.

        Returns ``(params, payload, cpu_seconds)``.  ``params`` travel
        in the envelope so the peer can invert the transform.  The
        default routes through the burst primitives so subclasses only
        implement :meth:`_burst_prolog` / :meth:`_wrap_one` and get the
        single-message path for free — byte-identical either way.
        """
        return self._wrap_one(body, context, self._burst_prolog(context))

    def unwrap(self, params: Dict[str, Any], payload: bytes) -> Tuple[bytes, float]:
        """Invert :meth:`wrap`.  Returns ``(body, cpu_seconds)``.

        Subclasses implement :meth:`_unwrap_one`, as they implement
        :meth:`_wrap_one`; the public pair stays on this class, where
        ``bench/spans.py`` weaves its spans.
        """
        return self._unwrap_one(params, payload)

    def _unwrap_one(
        self, params: Dict[str, Any], payload: bytes
    ) -> Tuple[bytes, float]:
        """Invert one transform; ``params`` are the peer's to choose, so
        a name they carry that resolves to nothing raises ``BAD_PARAM``."""
        return payload, 0.0

    # -- burst primitives -------------------------------------------------
    #
    # A burst amortises the outgoing transform *setup* (codec/cipher
    # table lookups, session-key resolution) across one AMI window
    # (:meth:`repro.orb.ami.PipelinedChannel.flush`).  Only Python-level
    # work is amortised: the simulated CPU cost of a transform is linear
    # in the bytes processed, so the time model and the produced bytes
    # are identical to N single wrap() calls — tests assert this.

    def _burst_prolog(self, context: Dict[str, Any]) -> Any:
        """Resolve per-burst outgoing transform state once."""
        return None

    def _wrap_one(
        self, body: bytes, context: Dict[str, Any], state: Any
    ) -> Tuple[Dict[str, Any], bytes, float]:
        """Transform one body using prepared ``state``."""
        return {}, body, 0.0

    def wrap_burst(
        self, bodies: Sequence[bytes], context: Dict[str, Any]
    ) -> List[Tuple[Dict[str, Any], bytes, float]]:
        """Wrap a batch of bodies with one prolog; byte-identical."""
        state = self._burst_prolog(context)
        out = [self._wrap_one(body, context, state) for body in bodies]
        COUNTERS.module_bursts += 1
        COUNTERS.module_burst_messages += len(out)
        return out

    def open_reply(self, reply_wire: bytes) -> Tuple[bytes, float]:
        """Undo the peer module's envelope on a reply, if it has one.

        Returns ``(giop_bytes, cpu_seconds)``; a bare reply (the server
        could not even read the request) passes through at no cost.
        """
        if not is_envelope(reply_wire):
            return reply_wire, 0.0
        envelope_name, params, payload = decode_envelope(reply_wire)
        if envelope_name != self.name:
            raise MARSHAL(
                f"reply wrapped by {envelope_name!r}, expected {self.name!r}"
            )
        return self.unwrap(params, payload)

    def send_request(self, orb: Any, request: Request) -> giop.Reply:
        """Client-side data path: encode, transform, transmit, decode.

        The default implementation covers every point-to-point module;
        group modules (multicast) override it wholesale.  Oneway
        requests (``response_expected`` false) are fire-and-forget:
        the caller resumes once the message has left, the server
        processes it in its own (future) time, and no reply travels.
        """
        clock = orb.time_source
        depart = clock.now()
        wire = giop.encode_request(request)
        depart += orb.marshal_cost(len(wire))
        if self.uses_envelope:
            params, payload, cpu = self.wrap(wire, self.context_for(request))
            depart += cpu
            wire = encode_envelope(self.name, params, payload)
        if not request.response_expected:
            orb.one_way(request.target.profile.host, wire, depart)
            clock.wait_until(depart)
            self.requests_sent += 1
            return giop.Reply(request.request_id, {}, None, None)
        reply_wire, finish = orb.round_trip(
            request.target.profile.host,
            wire,
            depart,
            self.reservations_for(request),
        )
        reply_wire, cpu = self.open_reply(reply_wire)
        finish += cpu
        finish += orb.marshal_cost(len(reply_wire))
        clock.wait_until(finish)
        self.requests_sent += 1
        return giop.decode_reply(reply_wire)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QoSModule {self.name!r}>"
