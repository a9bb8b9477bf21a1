"""GIOP-style message protocol.

Requests and replies really are flattened to bytes and parsed back on
the receiving ORB; the byte counts feed the network model, so protocol
overhead (headers, service contexts) is visible in the transfer times
just as it would be on a real wire.

Hot-path machinery (the encodings themselves are unchanged):

- the constant 7-byte header (magic + version + message type) is
  precomputed once per message type and appended verbatim;
- the spans of a message that repeat call after call (preamble,
  argument list, result) replay from exact-match LRUs.  Each cache
  below names the ``bench/`` workload that pays when it is ablated
  (``op_us_p50``, change -> ablated); the whole table, with the runs,
  is in DESIGN.md "The flat codec and the payload span caches";
- every lookup asks its cache's admission rule (``LRUCache.admit``)
  *before* building a key and reports a miss once (``missed``): after
  eight consecutive misses a cache is bypassed for up to 8 lookups in
  9, so traffic that never repeats stops paying for most of the
  freezes, hashes, probes and copies its keys cost.  A bypassed span
  takes the ordinary path and counts as a miss.

The codec does not time itself: ``bench/spans.py`` measures these four
functions from outside.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.orb._cdr_fast import _pack_double, _pack_ulong, _unpack_ulong
from repro.orb.cdr import CDRDecoder, CDREncoder
from repro.orb.exceptions import (
    MARSHAL,
    SystemException,
    UserException,
    system_exception_from_wire,
    user_exception_from_wire,
)
from repro.orb.ior import IOR
from repro.orb.request import Request
from repro.perf.counters import COUNTERS
from repro.perf.lru import LRUCache

MAGIC = b"GIOP"
VERSION = (1, 2)

MSG_REQUEST = 0
MSG_REPLY = 1
MSG_LOCATE_REQUEST = 2
MSG_LOCATE_REPLY = 3

# Locate status values.
UNKNOWN_OBJECT = 0
OBJECT_HERE = 1

# Reply status values.
NO_EXCEPTION = 0
USER_EXCEPTION = 1
SYSTEM_EXCEPTION = 2

#: The constant wire header per message type: GIOP magic, version
#: bytes, message type — seven octets, no alignment, so one literal.
_HEADER_WIRE = {
    message_type: MAGIC + bytes((VERSION[0], VERSION[1], message_type))
    for message_type in (MSG_REQUEST, MSG_REPLY, MSG_LOCATE_REQUEST, MSG_LOCATE_REPLY)
}
_HEADER_SIZE = 7

#: Header plus the single pad byte that precedes the request id, so
#: hot encoders emit header + id in one append.  The id then always
#: occupies bytes 8..12.
_REQUEST_PREFIX = _HEADER_WIRE[MSG_REQUEST] + b"\x00"
_REPLY_PREFIX = _HEADER_WIRE[MSG_REPLY] + b"\x00"

#: A reply's service-context map starts at byte 12, right after the id,
#: so the usual empty one always encodes to these bytes.  Appending
#: them skips the generic ``any`` writer, which an echo whose spans all
#: replay would otherwise run for this map alone (≈ 1.5 µs a call).
_encoder = CDREncoder()
_encoder.write_raw(_REPLY_PREFIX + _pack_ulong(0))
_encoder.write_any({})
_NO_REPLY_CONTEXTS = _encoder.getvalue()[12:]
del _encoder


def _read_header(decoder: CDRDecoder) -> int:
    header = decoder.read_raw(_HEADER_SIZE)
    if header[:4] != MAGIC:
        raise MARSHAL(f"bad GIOP magic: {header[:4]!r}")
    major, minor = header[4], header[5]
    if (major, minor) != VERSION:
        raise MARSHAL(f"unsupported GIOP version {major}.{minor}")
    return header[6]


# -- cache keys ----------------------------------------------------------

_UNFREEZABLE = object()


def _freeze(value: Any) -> Any:
    """A hashable, type-tagged key for a plain value, or _UNFREEZABLE.

    Type tags keep 1, 1.0 and True — equal and same-hash in Python but
    encoded differently — from colliding in the cache.
    """
    kind = type(value)
    if kind is str:
        return value
    if kind is bool:
        return ("b", value)
    if kind is int:
        return ("i", value)
    if kind is float:
        # Keyed by bit pattern: -0.0 == 0.0 and NaN != NaN would
        # otherwise corrupt or defeat the cache.
        return ("f", _pack_double(value))
    if value is None:
        return ("n",)
    if kind is bytes:
        return ("y", value)
    if kind is dict:
        items = []
        for key, item in value.items():
            if type(key) is not str:
                return _UNFREEZABLE
            frozen = _freeze(item)
            if frozen is _UNFREEZABLE:
                return _UNFREEZABLE
            items.append((key, frozen))
        return ("d", tuple(items))
    if kind is list or kind is tuple:
        items = []
        for item in value:
            frozen = _freeze(item)
            if frozen is _UNFREEZABLE:
                return _UNFREEZABLE
            items.append(frozen)
        return ("l", tuple(items))
    return _UNFREEZABLE


# -- request/reply preamble caches -------------------------------------
#
# Between the request id (always bytes 8..12: 7-byte header + 1 pad)
# and the argument list, a request carries target, operation, kind,
# command target, response flag and service contexts — all constant
# for a given stub making repeated calls.  The encoder caches that
# whole span keyed by the values; the decoder caches the parse keyed
# by the exact bytes.  Both are exact-match caches, so the wire format
# and the accepted inputs are unchanged — a miss simply takes the
# field-by-field path below and populates the cache; a lookup the
# admission rule bypasses takes the same path and populates nothing.
#
# The per-call deadline context of a ``ReliabilityMediator`` makes every
# whole preamble unique, so on ``qos_bound`` those caches sit out their
# miss streaks.  A miss there falls back to a second exact-match replay
# of the *head* — target, operation, kind, command target and response
# flag, everything in front of the context map — keyed by those values
# on encode and by the head bytes on decode.  Only the context map then
# takes the generic ``any`` codec, whatever its values change per call.
# The head caches are separate LRUs, so a head hit never resets the
# whole-preamble cache's miss streak (nor counts in ``ctx_cache_*``).

#: Kept: without the encode-side replay ``echo_hot`` pays 37.2 -> 41.1
#: us and ``scenario_matrix`` 77.5 -> 81.8 us per flow.
_request_preamble_cache = LRUCache(maxsize=256)
#: Kept: without the two decode-side replays ``echo_hot`` pays 37.2 ->
#: 64.4 us and ``rt_pipelined`` 35.3 -> 82.0 (every message re-parses
#: its target IOR and context map, and only a request whose preamble or
#: head replays goes on to the argument replay below).
_request_decode_cache = LRUCache(maxsize=256)
_reply_decode_cache = LRUCache(maxsize=256)
#: Kept: without the two head replays ``qos_bound`` pays 76.7 -> 81.4
#: us; ``scenario_matrix``, where no head replays, reads 66.6 -> 65.6,
#: inside its spread.
_request_head_cache = LRUCache(maxsize=256)
_request_head_decode_cache = LRUCache(maxsize=256)

# -- payload ("any") span caches ---------------------------------------
#
# The same exact-match replay idea, applied to the hot *tail* of a
# message: the argument list of a request and the result of a reply.
# Encoders key by (buffer alignment, frozen value tree) — _freeze is
# type-tagged and keys floats by bit pattern, so two values share a key
# only when their encodings are byte-identical.  Decoders key by the
# exact remaining bytes (the span runs to the end of the message, so
# the tail slice *is* the span) and replay a plain-data copy, keeping
# the caller's full ownership of mutable results.  Misses take the
# ordinary element-by-element path and populate the cache, so the wire
# format and the accepted inputs are unchanged.  Every span counts once
# in ``COUNTERS.any_span_hits`` or ``any_span_misses``: probed, bypassed,
# over ``_SPAN_LIMIT`` or decoded on the slow request path.

#: Kept: ``echo_hot`` (one payload repeated) pays, one cache ablated at
#: a time, 37.2 -> 46.7 / 54.4 / 47.6 / 52.7 us in this order, and 74.7
#: with all four gone.  Where nothing repeats they were a tax
#: (``echo_cold`` 131.0 -> 84.2 us without them) until the admission
#: rule, which bypasses them on a miss streak (DESIGN.md has the runs).
_args_encode_cache = LRUCache(maxsize=256)
_args_decode_cache = LRUCache(maxsize=256)
_result_encode_cache = LRUCache(maxsize=256)
_result_decode_cache = LRUCache(maxsize=256)

#: Spans above this size are not memoised: the caches target per-call
#: overhead, which large payloads amortise on their own, and bounding
#: the entry size keeps 256 slots worth of bytes small.
_SPAN_LIMIT = 4096


def _copy_plain(value: Any) -> Any:
    """Deep copy of decoded plain data (only containers need copying)."""
    kind = type(value)
    if kind is dict:
        return {key: _copy_plain(item) for key, item in value.items()}
    if kind is list:
        return [_copy_plain(item) for item in value]
    return value


def _encode_span(
    encoder: CDREncoder,
    cache: LRUCache,
    value: Any,
    write: Callable[[CDREncoder, Any], None],
) -> None:
    """Append ``write(encoder, value)``'s bytes, replayed from ``cache``
    when this exact value tree was written at this alignment before."""
    key = None
    if cache.admit():
        frozen = _freeze(value)
        if frozen is not _UNFREEZABLE:
            key = (len(encoder) % 8, frozen)
            span = cache.get(key)
            if span is not None:
                encoder.write_raw(span)
                COUNTERS.any_span_hits += 1
                return
        cache.missed()
    mark = encoder.mark()
    write(encoder, value)
    if key is not None:
        span = encoder.bytes_since(mark)
        if len(span) <= _SPAN_LIMIT:
            cache.put(key, span)
    COUNTERS.any_span_misses += 1


def _decode_span(
    cache: LRUCache,
    data: bytes,
    offset: int,
    read: Callable[[CDRDecoder], Any],
) -> Any:
    """``read(decoder at offset)``, replayed from ``cache`` when these
    exact tail bytes were decoded before.

    The template is the cache's own copy and every hit hands out
    another: callers own (and may mutate) what they get.  It is stored
    as a 1-tuple so a legitimate ``None`` still hits.  A tail longer
    than ``_SPAN_LIMIT`` is never stored, so it is decoded without a
    probe and does not count against the cache's admission rule.
    """
    tail = None
    if len(data) - offset <= _SPAN_LIMIT and cache.admit():
        tail = data[offset:]
        template = cache.get(tail)
        if template is not None:
            COUNTERS.any_span_hits += 1
            return _copy_plain(template[0])
        cache.missed()
    decoder = CDRDecoder(data)
    decoder._offset = offset
    value = read(decoder)
    if decoder._offset != decoder._len:
        raise _trailing(decoder)
    if tail is not None:
        cache.put(tail, (_copy_plain(value),))
    COUNTERS.any_span_misses += 1
    return value


def _trailing(decoder: CDRDecoder) -> MARSHAL:
    """A message ends at its last field: bytes after it are ``MARSHAL``.

    Only field-by-field parses test for them; a replay is keyed on exact
    bytes that already passed the test.
    """
    return MARSHAL(f"{decoder.remaining} trailing byte(s) after the last field")


def _write_args(encoder: CDREncoder, args: Tuple[Any, ...]) -> None:
    encoder.write_ulong(len(args))
    for arg in args:
        encoder.write_any(arg)


def _read_args(decoder: CDRDecoder) -> List[Any]:
    return [decoder.read_any() for _ in range(decoder.read_ulong())]


def _write_result(encoder: CDREncoder, result: Any) -> None:
    encoder.write_octet(NO_EXCEPTION)
    encoder.write_any(result)


def _read_result(decoder: CDRDecoder) -> Any:
    decoder._offset += 1  # the NO_EXCEPTION octet, which decode_reply peeked
    return decoder.read_any()


#: Distinct preamble byte-lengths seen by each decode cache (one per
#: stub/operation shape in practice).  Bounded: probing degenerates to
#: the slow path when a workload somehow produces many shapes.
_request_decode_lengths: List[int] = []
_reply_decode_lengths: List[int] = []
_request_head_lengths: List[int] = []
_DECODE_LENGTH_LIMIT = 16


def _learn_length(lengths: List[int], length: int) -> None:
    """Add a span length for a decode cache to probe, up to the limit."""
    if length not in lengths and len(lengths) < _DECODE_LENGTH_LIMIT:
        lengths.append(length)


def _scalar_contexts(contexts: Dict[str, Any]) -> bool:
    """True when every context value is immutable (safe to share
    across decoded requests without deep-copying)."""
    for value in contexts.values():
        if not (
            value is None
            or type(value) in (str, int, float, bool, bytes)
        ):
            return False
    return True


def clear_caches() -> None:
    """Drop the wire caches and their admission state (tests and
    memory hygiene)."""
    _request_preamble_cache.clear()
    _request_decode_cache.clear()
    _reply_decode_cache.clear()
    _request_head_cache.clear()
    _request_head_decode_cache.clear()
    _args_encode_cache.clear()
    _args_decode_cache.clear()
    _result_encode_cache.clear()
    _result_decode_cache.clear()
    del _request_decode_lengths[:]
    del _reply_decode_lengths[:]
    del _request_head_lengths[:]


# -- requests -----------------------------------------------------------


def encode_request(request: Request) -> bytes:
    """Flatten a :class:`Request` (including its dual-use tag) to bytes."""
    encoder = CDREncoder()
    encoder.write_raw(_REQUEST_PREFIX + _pack_ulong(request.request_id))
    # Everything between the request id and the args is constant for a
    # stub calling the same operation with the same contexts — replay
    # the cached span when the key matches (IORs are value objects, so
    # identity keying is exact; _freeze covers the contexts).
    preamble = None
    key = None
    if _request_preamble_cache.admit():
        frozen = _freeze(request.service_contexts)
        if frozen is not _UNFREEZABLE:
            key = (
                request.target,
                request.operation,
                request.kind,
                request.command_target,
                request.response_expected,
                frozen,
            )
            preamble = _request_preamble_cache.get(key)
        if preamble is None:
            _request_preamble_cache.missed()
    if preamble is not None:
        encoder.write_raw(preamble)
        # The replayed span embeds the context encoding.
        COUNTERS.ctx_cache_hits += 1
    else:
        mark = encoder.mark()
        head = None
        head_key = None
        if _request_head_cache.admit():
            head_key = (
                request.target,
                request.operation,
                request.kind,
                request.command_target,
                request.response_expected,
            )
            head = _request_head_cache.get(head_key)
            if head is None:
                _request_head_cache.missed()
        if head is not None:
            encoder.write_raw(head)
        else:
            encoder.write_octets(request.target.encode())
            encoder.write_string(request.operation)
            encoder.write_string(request.kind)
            encoder.write_string(request.command_target or "")
            encoder.write_boolean(request.response_expected)
            if head_key is not None:
                _request_head_cache.put(head_key, encoder.bytes_since(mark))
        encoder.write_any(request.service_contexts)
        if key is not None:
            _request_preamble_cache.put(key, encoder.bytes_since(mark))
        COUNTERS.ctx_cache_misses += 1
    _encode_span(encoder, _args_encode_cache, request.args, _write_args)
    return encoder.getvalue()


def decode_request(data: bytes) -> Request:
    """Parse bytes back into a :class:`Request`.

    The decoded request keeps the sender's request id so replies can be
    correlated.
    """
    # Exact-bytes fast path: probe the cached preamble parses at the
    # handful of span lengths this process has seen.  A hit replays
    # the already-validated fields; anything else (including malformed
    # input, and a lookup the admission rule bypasses) takes the
    # field-by-field parse below.
    probe = (
        data[:_HEADER_SIZE] == _HEADER_WIRE[MSG_REQUEST]
        and _request_decode_cache.admit()
    )
    if probe:
        for length in _request_decode_lengths:
            entry = _request_decode_cache.get(data[12 : 12 + length])
            if entry is not None:
                target, operation, kind, command_target, expected, ctx = entry
                # The replayed span embeds the cached IOR parse.
                COUNTERS.ior_parse_hits += 1
                return Request(
                    target,
                    operation,
                    _decode_span(_args_decode_cache, data, 12 + length, _read_args),
                    kind=kind,
                    command_target=command_target,
                    service_contexts=ctx,
                    response_expected=expected,
                    request_id=_unpack_ulong(data, 8)[0],
                )
        _request_decode_cache.missed()  # once, however many lengths
    # Head replay: the same probe over the span in front of the context
    # map, which alone is then parsed.
    head = None
    head_probe = (
        data[:_HEADER_SIZE] == _HEADER_WIRE[MSG_REQUEST]
        and _request_head_decode_cache.admit()
    )
    if head_probe:
        for length in _request_head_lengths:
            head = _request_head_decode_cache.get(data[12 : 12 + length])
            if head is not None:
                target, operation, kind, command_target, response_expected = head
                COUNTERS.ior_parse_hits += 1  # as on a whole-preamble replay
                request_id = _unpack_ulong(data, 8)[0]
                decoder = CDRDecoder(data)
                decoder._offset = 12 + length
                break
        else:
            _request_head_decode_cache.missed()
    if head is None:
        decoder = CDRDecoder(data)
        if _read_header(decoder) != MSG_REQUEST:
            raise MARSHAL("expected a GIOP Request message")
        request_id = decoder.read_ulong()
        target = IOR.decode(decoder.read_octets())
        operation = decoder.read_string()
        kind = decoder.read_string()
        command_target = decoder.read_string() or None
        response_expected = decoder.read_boolean()
        if head_probe:
            head_end = decoder._offset
            _request_head_decode_cache.put(
                data[12:head_end],
                (target, operation, kind, command_target, response_expected),
            )
            _learn_length(_request_head_lengths, head_end - 12)
    contexts = decoder.read_any()
    if not isinstance(contexts, dict):
        raise MARSHAL("service contexts must decode to a map")
    preamble_end = decoder._offset
    if head is None:
        args = _read_args(decoder)
        if decoder._offset != decoder._len:
            raise _trailing(decoder)
        COUNTERS.any_span_misses += 1  # the args span, decoded unprobed
    else:
        args = _decode_span(_args_decode_cache, data, preamble_end, _read_args)
    if probe and _scalar_contexts(contexts):
        _request_decode_cache.put(
            data[12:preamble_end],
            (target, operation, kind, command_target, response_expected,
             dict(contexts)),
        )
        _learn_length(_request_decode_lengths, preamble_end - 12)
    return Request(
        target,
        operation,
        args,
        kind=kind,
        command_target=command_target,
        service_contexts=contexts,
        response_expected=response_expected,
        request_id=request_id,
    )


def encode_locate_request(request_id: int, object_key: str) -> bytes:
    """A GIOP LocateRequest: does the peer serve this object?"""
    encoder = CDREncoder()
    encoder.write_raw(_HEADER_WIRE[MSG_LOCATE_REQUEST])
    encoder.write_ulong(request_id)
    encoder.write_string(object_key)
    return encoder.getvalue()


def decode_locate_request(data: bytes) -> Tuple[int, str]:
    decoder = CDRDecoder(data)
    if _read_header(decoder) != MSG_LOCATE_REQUEST:
        raise MARSHAL("expected a GIOP LocateRequest message")
    return decoder.read_ulong(), decoder.read_string()


def encode_locate_reply(request_id: int, status: int) -> bytes:
    encoder = CDREncoder()
    encoder.write_raw(_HEADER_WIRE[MSG_LOCATE_REPLY])
    encoder.write_ulong(request_id)
    encoder.write_octet(status)
    return encoder.getvalue()


def decode_locate_reply(data: bytes) -> Tuple[int, int]:
    decoder = CDRDecoder(data)
    if _read_header(decoder) != MSG_LOCATE_REPLY:
        raise MARSHAL("expected a GIOP LocateReply message")
    return decoder.read_ulong(), decoder.read_octet()


def message_type(data: bytes) -> int:
    """Peek at a GIOP message's type without consuming it."""
    if len(data) >= _HEADER_SIZE and data[:4] == MAGIC:
        if (data[4], data[5]) == VERSION:
            return data[6]
    return _read_header(CDRDecoder(data))  # fall through for exact errors


def encode_reply(
    request_id: int,
    result: Any = None,
    exception: Optional[Exception] = None,
    service_contexts: Optional[Dict[str, Any]] = None,
) -> bytes:
    """Flatten a reply: a result, a user exception or a system exception."""
    encoder = CDREncoder()
    if service_contexts:
        encoder.write_raw(_REPLY_PREFIX + _pack_ulong(request_id))
        encoder.write_any(service_contexts)
    else:
        encoder.write_raw(_REPLY_PREFIX + _pack_ulong(request_id) + _NO_REPLY_CONTEXTS)
    if exception is None:
        _encode_span(encoder, _result_encode_cache, result, _write_result)
    elif isinstance(exception, UserException):
        encoder.write_octet(USER_EXCEPTION)
        encoder.write_string(exception.repo_id)
        encoder.write_string(exception.message)
        encoder.write_any(exception.members)
    elif isinstance(exception, SystemException):
        encoder.write_octet(SYSTEM_EXCEPTION)
        encoder.write_string(exception.repo_id)
        encoder.write_string(exception.message)
        encoder.write_long(exception.minor)
    else:
        # Non-CORBA exceptions cross the wire as a generic system exception;
        # a real ORB would do the same rather than leak server internals.
        encoder.write_octet(SYSTEM_EXCEPTION)
        encoder.write_string(SystemException.repo_id)
        encoder.write_string(f"{type(exception).__name__}: {exception}")
        encoder.write_long(0)
    return encoder.getvalue()


class Reply:
    """A decoded reply."""

    __slots__ = ("request_id", "service_contexts", "result", "exception")

    def __init__(
        self,
        request_id: int,
        service_contexts: Dict[str, Any],
        result: Any,
        exception: Optional[Exception],
    ) -> None:
        self.request_id = request_id
        self.service_contexts = service_contexts
        self.result = result
        self.exception = exception

    def value(self) -> Any:
        """Return the result, raising the carried exception if any."""
        if self.exception is not None:
            raise self.exception
        return self.result


def decode_reply(data: bytes) -> Reply:
    """Parse a reply message."""
    contexts = None
    probe = (
        data[:_HEADER_SIZE] == _HEADER_WIRE[MSG_REPLY]
        and _reply_decode_cache.admit()
    )
    if probe:
        for length in _reply_decode_lengths:
            cached = _reply_decode_cache.get(data[12 : 12 + length])
            if cached is not None:
                contexts = dict(cached)
                offset = 12 + length
                request_id = _unpack_ulong(data, 8)[0]
                break
        else:
            _reply_decode_cache.missed()  # once, however many lengths
    if contexts is None:
        decoder = CDRDecoder(data)
        if _read_header(decoder) != MSG_REPLY:
            raise MARSHAL("expected a GIOP Reply message")
        request_id = decoder.read_ulong()
        contexts = decoder.read_any()
        if not isinstance(contexts, dict):
            raise MARSHAL("service contexts must decode to a map")
        offset = decoder._offset
        if probe and _scalar_contexts(contexts):
            _reply_decode_cache.put(data[12:offset], dict(contexts))
            _learn_length(_reply_decode_lengths, offset - 12)
    if offset < len(data) and data[offset] == NO_EXCEPTION:
        result = _decode_span(_result_decode_cache, data, offset, _read_result)
        return Reply(request_id, contexts, result, None)
    decoder = CDRDecoder(data)
    decoder._offset = offset
    status = decoder.read_octet()
    if status == USER_EXCEPTION:
        repo_id = decoder.read_string()
        message = decoder.read_string()
        members = decoder.read_any()
        exception = user_exception_from_wire(repo_id, message, members)
    elif status == SYSTEM_EXCEPTION:
        repo_id = decoder.read_string()
        message = decoder.read_string()
        minor = decoder.read_long()
        exception = system_exception_from_wire(repo_id, message, minor)
    else:
        raise MARSHAL(f"unknown reply status: {status}")
    if decoder._offset != decoder._len:
        raise _trailing(decoder)
    return Reply(request_id, contexts, None, exception)
