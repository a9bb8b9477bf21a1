"""QoS module base class and the module wire envelope.

A module participates in two planes:

- **control plane**: a *static* interface (exposed locally as a pseudo
  object — loading, introspection, statistics) and a *dynamic*
  interface (module-specific operations driven through the DII by
  tagged commands, Figure 3).
- **data plane**: service requests assigned to the module pass through
  :meth:`QoSModule.exchange`, the one client-side copy of "encode →
  charge marshalling → wrap → carry → open → charge → decode".  Its two
  halves, :meth:`~QoSModule.seal` and :meth:`~QoSModule.open`, are what
  an AMI window runs per message.  Modules that transform the byte
  stream (compression, encryption) implement :meth:`_wrap_one` /
  :meth:`_unwrap_one` and their peer module on the receiving ORB undoes
  the transformation.

Transformed messages travel inside an **envelope**::

    b"MQOS" | string module-name | any params | octets payload

so the receiving ORB knows which module must unwrap before GIOP
decoding — the on-the-wire realisation of the paper's module hierarchy.

Everything in front of the payload's length word (magic, name, params,
the padding that aligns the word) is the envelope **header**.  A module
sends the same few headers call after call, so each is built once per
(name, params) and parsed once per header bytes: two exact-match LRUs
under the GIOP caches' admission rule, holding all-``str`` param maps
only (every module here).  Any other map, a lookup the rule bypasses,
and a truncated or overrunning envelope take the field-by-field path,
so the wire bytes and the ``MARSHAL`` refusals are unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.orb import giop
from repro.orb._cdr_fast import _PADDING, _pack_ulong, _unpack_ulong
from repro.orb.cdr import CDRDecoder, CDREncoder
from repro.orb.dii import PseudoObject
from repro.orb.exceptions import BAD_OPERATION, BAD_PARAM, MARSHAL, SystemException
from repro.orb.ior import IOR
from repro.orb.request import Request
from repro.perf.lru import LRUCache

ENVELOPE_MAGIC = b"MQOS"

#: (name, param items) -> header bytes, and header bytes -> (name,
#: param items).  Kept: without them ``qos_bound`` pays 82.4 -> 100.2
#: us (DESIGN.md "The flat codec and the payload span caches").
_header_encode_cache = LRUCache(maxsize=64)
_header_decode_cache = LRUCache(maxsize=64)
#: Distinct header byte-lengths the decode table has seen (bounded, as
#: in ``giop``: past the limit a new length is parsed, not probed).
_header_lengths: List[int] = []
_HEADER_LENGTH_LIMIT = 16


def _header_key(module_name: Any, params: Any) -> Optional[Tuple[str, Tuple]]:
    """``(name, param items)`` when the name and every key and value of
    the params map is a ``str``, else None (not stored)."""
    if type(module_name) is not str or type(params) is not dict:
        return None
    items = tuple(params.items())
    for key, value in items:
        if type(key) is not str or type(value) is not str:
            return None
    return module_name, items


def clear_envelope_tables() -> None:
    """Drop the envelope header tables and their admission state (tests
    reset them next to ``giop.clear_caches``)."""
    _header_encode_cache.clear()
    _header_decode_cache.clear()
    del _header_lengths[:]


def encode_envelope(module_name: str, params: Dict[str, Any], payload: bytes) -> bytes:
    """Wrap a transformed message body for the wire."""
    key = None
    if type(payload) is bytes and _header_encode_cache.admit():
        key = _header_key(module_name, params)
        if key is not None:
            header = _header_encode_cache.get(key)
            if header is not None:
                return header + _pack_ulong(len(payload)) + payload
        _header_encode_cache.missed()
    encoder = CDREncoder()
    encoder.write_raw(ENVELOPE_MAGIC)
    encoder.write_string(module_name)
    encoder.write_any(params)
    if key is not None:
        header = encoder.getvalue()
        _header_encode_cache.put(key, header + _PADDING[-len(header) % 4])
    encoder.write_octets(payload)
    return encoder.getvalue()


def decode_envelope(data: bytes) -> Tuple[str, Dict[str, Any], bytes]:
    """Split an envelope into (module name, params, payload).

    The params dict is the caller's own, on a table hit as on a parse.
    """
    probe = _header_decode_cache.admit()
    if probe:
        for length in _header_lengths:
            entry = _header_decode_cache.get(data[:length])
            if entry is not None:
                end = length + 4
                if end <= len(data):
                    end += _unpack_ulong(data, length)[0]
                    if end == len(data):
                        return entry[0], dict(entry[1]), data[length + 4 : end]
                break  # cut short or overlong: the parse below raises
        else:
            _header_decode_cache.missed()  # once, however many lengths
    decoder = CDRDecoder(data)
    magic = decoder.read_raw(4)
    if magic != ENVELOPE_MAGIC:
        raise MARSHAL(f"not a module envelope: {magic!r}")
    module_name = decoder.read_string()
    params = decoder.read_any()
    if not isinstance(params, dict):
        raise MARSHAL("envelope params must decode to a map")
    length = decoder._offset
    payload = decoder.read_octets()
    if decoder._offset != decoder._len:
        raise MARSHAL(f"{decoder.remaining} trailing byte(s) after the payload")
    if probe:
        key = _header_key(module_name, params)
        if key is not None:
            length += -length % 4
            _header_decode_cache.put(data[:length], key)
            if (
                length not in _header_lengths
                and len(_header_lengths) < _HEADER_LENGTH_LIMIT
            ):
                _header_lengths.append(length)
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
        in the envelope so the peer can invert the transform.
        Subclasses implement :meth:`_wrap_one`; the public pair stays
        on this class, where ``bench/spans.py`` weaves its spans.
        """
        return self._wrap_one(body, context)

    def unwrap(self, params: Dict[str, Any], payload: bytes) -> Tuple[bytes, float]:
        """Invert :meth:`wrap`.  Returns ``(body, cpu_seconds)``."""
        return self._unwrap_one(params, payload)

    def _wrap_one(
        self, body: bytes, context: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], bytes, float]:
        """Transform one body under its binding's ``context``."""
        return {}, body, 0.0

    def _unwrap_one(
        self, params: Dict[str, Any], payload: bytes
    ) -> Tuple[bytes, float]:
        """Invert one transform; ``params`` are the peer's to choose, so
        a name they carry that resolves to nothing raises ``BAD_PARAM``."""
        return payload, 0.0

    def seal(
        self, orb: Any, body: bytes, context: Optional[Dict[str, Any]], at: float
    ) -> Tuple[bytes, float]:
        """Make an encoded request ready to leave at ``at``.

        Returns ``(wire, departure)``: the client pays the marshalling
        of ``body`` and, when ``context`` is given, the transform CPU of
        wrapping it into this module's envelope.
        """
        departure = at + orb.marshal_cost(len(body))
        if context is None:
            return body, departure
        params, payload, cpu = self.wrap(body, context)
        return encode_envelope(self.name, params, payload), departure + cpu

    def open(self, orb: Any, reply_wire: bytes, at: float) -> Tuple[giop.Reply, float]:
        """Undo :meth:`seal` on a reply that arrived at ``at``.

        Returns ``(reply, finish)``, charging the inverse transform and
        the unmarshalling.  A bare reply (the server could not even
        read the request) needs no unwrap; one this module cannot open
        or decode raises its ``SystemException``.
        """
        cpu = 0.0
        if is_envelope(reply_wire):
            envelope_name, params, payload = decode_envelope(reply_wire)
            if envelope_name != self.name:
                raise MARSHAL(
                    f"reply wrapped by {envelope_name!r}, expected {self.name!r}"
                )
            reply_wire, cpu = self.unwrap(params, payload)
        finish = at + cpu
        finish += orb.marshal_cost(len(reply_wire))
        return giop.decode_reply(reply_wire), finish

    def exchange(
        self, orb: Any, request: Request, depart: float
    ) -> Tuple[Optional[giop.Reply], Optional[SystemException], float, int, int]:
        """One request through this module, leaving at ``depart``.

        Returns ``(reply, error, finish, bytes_out, bytes_in)`` and
        moves no clock, so callers with their own notion of time
        (parallel fan-out, open-loop arrivals) share it.  A
        ``SystemException`` raised carrying the request or opening its
        reply comes back as ``error``, with no reply, no bytes in and
        ``finish`` at the departure, so a fan-out goes on past one
        failed leg.  A oneway returns no reply and finishes once its
        message has left.
        """
        body = giop.encode_request(request)
        context = self.context_for(request) if self.uses_envelope else None
        wire, depart = self.seal(orb, body, context, depart)
        host = request.target.profile.host
        if not request.response_expected:
            orb.one_way(host, wire, depart)
            return None, None, depart, len(wire), 0
        try:
            reply_wire, finish = orb.round_trip(
                host, wire, depart, self.reservations_for(request)
            )
            reply, finish = self.open(orb, reply_wire, finish)
        except SystemException as error:
            return None, error, depart, len(wire), 0
        return reply, None, finish, len(wire), len(reply_wire)

    def send_request(self, orb: Any, request: Request) -> giop.Reply:
        """Client-side data path: :meth:`exchange` now, then wait for it.

        The default implementation covers every point-to-point module;
        group modules (multicast) override it wholesale.  Oneway
        requests (``response_expected`` false) are fire-and-forget:
        the caller resumes once the message has left, the server
        processes it in its own (future) time, and no reply travels.
        """
        clock = orb.time_source
        reply, error, finish, _, _ = self.exchange(orb, request, clock.now())
        if error is not None:
            raise error
        clock.wait_until(finish)
        self.requests_sent += 1
        if reply is None:
            return giop.Reply(request.request_id, {}, None, None)
        return reply

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QoSModule {self.name!r}>"
