"""GIOP-style message protocol.

Requests and replies really are flattened to bytes and parsed back on
the receiving ORB; the byte counts feed the network model, so protocol
overhead (headers, service contexts) is visible in the transfer times
just as it would be on a real wire.

Hot-path machinery (the encodings themselves are unchanged):

- the constant 7-byte header (magic + version + message type) is
  precomputed once per message type and appended verbatim;
- service contexts — usually empty or identical call after call — are
  encoded once per (alignment, content) and replayed from a bounded
  LRU instead of being re-encoded per message;
- when :data:`repro.perf.COUNTERS` is enabled, request/reply encode
  and decode record nanoseconds and byte counts.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.orb.cdr import CDRDecoder, CDREncoder, _S_ULONG
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


def _read_header(decoder: CDRDecoder) -> int:
    header = decoder.read_raw(_HEADER_SIZE)
    if header[:4] != MAGIC:
        raise MARSHAL(f"bad GIOP magic: {header[:4]!r}")
    major, minor = header[4], header[5]
    if (major, minor) != VERSION:
        raise MARSHAL(f"unsupported GIOP version {major}.{minor}")
    return header[6]


# -- service-context cache ---------------------------------------------

#: Encoded service-context maps keyed by (buffer offset mod 8, frozen
#: content).  The alignment is part of the key because the `any`
#: encoding pads relative to the absolute offset.
_context_cache = LRUCache(maxsize=256)

_UNFREEZABLE = object()

# struct used to key floats by bit pattern: -0.0 == 0.0 and NaN != NaN
# would otherwise corrupt or defeat the cache.
from repro.orb.cdr import _S_DOUBLE  # noqa: E402  (private by design)


def _freeze(value: Any) -> Any:
    """A hashable, type-tagged key for a context value, or _UNFREEZABLE.

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
        return ("f", _S_DOUBLE.pack(value))
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


def _write_contexts(encoder: CDREncoder, contexts: Dict[str, Any]) -> None:
    """write_any(contexts), replayed from cache when seen before."""
    frozen = _freeze(contexts)
    if frozen is _UNFREEZABLE:
        encoder.write_any(contexts)
        return
    key = (len(encoder) % 8, frozen)
    cached = _context_cache.get(key)
    if cached is not None:
        encoder.write_raw(cached)
        COUNTERS.ctx_cache_hits += 1
        return
    mark = encoder.mark()
    encoder.write_any(contexts)
    _context_cache.put(key, encoder.bytes_since(mark))
    COUNTERS.ctx_cache_misses += 1


# -- request/reply preamble caches -------------------------------------
#
# Between the request id (always bytes 8..12: 7-byte header + 1 pad)
# and the argument list, a request carries target, operation, kind,
# command target, response flag and service contexts — all constant
# for a given stub making repeated calls.  The encoder caches that
# whole span keyed by the values; the decoder caches the parse keyed
# by the exact bytes.  Both are exact-match caches, so the wire format
# and the accepted inputs are unchanged — a miss simply takes the
# field-by-field path below and populates the cache.

_request_preamble_cache = LRUCache(maxsize=256)
_request_decode_cache = LRUCache(maxsize=256)
_reply_decode_cache = LRUCache(maxsize=256)

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
# format and the accepted inputs are unchanged.

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

#: Distinct preamble byte-lengths seen by each decode cache (one per
#: stub/operation shape in practice).  Bounded: probing degenerates to
#: the slow path when a workload somehow produces many shapes.
_request_decode_lengths: List[int] = []
_reply_decode_lengths: List[int] = []
_DECODE_LENGTH_LIMIT = 16


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
    """Drop the wire caches (tests and memory hygiene)."""
    _context_cache.clear()
    _request_preamble_cache.clear()
    _request_decode_cache.clear()
    _reply_decode_cache.clear()
    _args_encode_cache.clear()
    _args_decode_cache.clear()
    _result_encode_cache.clear()
    _result_decode_cache.clear()
    del _request_decode_lengths[:]
    del _reply_decode_lengths[:]


# -- requests -----------------------------------------------------------


def encode_request(request: Request, pools: Optional[Any] = None) -> bytes:
    """Flatten a :class:`Request` (including its dual-use tag) to bytes.

    ``pools`` is an optional :class:`~repro.orb.pool.WirePools`; when
    given, the encoder buffer is recycled through its free list.
    """
    counters = COUNTERS
    start = time.perf_counter_ns() if counters.enabled else 0
    encoder = pools.acquire_encoder() if pools is not None else CDREncoder()
    encoder.write_raw(_REQUEST_PREFIX + _S_ULONG.pack(request.request_id))
    # Everything between the request id and the args is constant for a
    # stub calling the same operation with the same contexts — replay
    # the cached span when the key matches (IORs are value objects, so
    # identity keying is exact; _freeze covers the contexts).
    preamble = None
    key = None
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
    if preamble is not None:
        encoder.write_raw(preamble)
        # The replayed span embeds the cached context encoding.
        counters.ctx_cache_hits += 1
    else:
        mark = encoder.mark()
        encoder.write_octets(request.target.encode())
        encoder.write_string(request.operation)
        encoder.write_string(request.kind)
        encoder.write_string(request.command_target or "")
        encoder.write_boolean(request.response_expected)
        _write_contexts(encoder, request.service_contexts)
        if key is not None:
            _request_preamble_cache.put(key, encoder.bytes_since(mark))
    args = request.args
    frozen_args = _freeze(args)
    if frozen_args is not _UNFREEZABLE:
        args_key = (len(encoder) % 8, frozen_args)
        span = _args_encode_cache.get(args_key)
        if span is not None:
            encoder.write_raw(span)
            counters.any_span_hits += 1
        else:
            mark = encoder.mark()
            encoder.write_ulong(len(args))
            for arg in args:
                encoder.write_any(arg)
            span = encoder.bytes_since(mark)
            if len(span) <= _SPAN_LIMIT:
                _args_encode_cache.put(args_key, span)
            counters.any_span_misses += 1
    else:
        encoder.write_ulong(len(args))
        for arg in args:
            encoder.write_any(arg)
    wire = encoder.getvalue()
    if pools is not None:
        pools.release_encoder(encoder)
    if counters.enabled:
        counters.encode_calls += 1
        counters.encode_ns += time.perf_counter_ns() - start
        counters.encode_bytes += len(wire)
    return wire


def decode_request(data: bytes) -> Request:
    """Parse bytes back into a :class:`Request`.

    The decoded request keeps the sender's request id so replies can be
    correlated.
    """
    counters = COUNTERS
    start = time.perf_counter_ns() if counters.enabled else 0
    # Exact-bytes fast path: probe the cached preamble parses at the
    # handful of span lengths this process has seen.  A hit replays
    # the already-validated fields; anything else (including malformed
    # input) takes the field-by-field parse below.
    if data[:_HEADER_SIZE] == _HEADER_WIRE[MSG_REQUEST]:
        for length in _request_decode_lengths:
            entry = _request_decode_cache.get(data[12 : 12 + length])
            if entry is not None:
                target, operation, kind, command_target, expected, ctx = entry
                # The replayed span embeds the cached IOR parse.
                counters.ior_parse_hits += 1
                tail = data[12 + length:]
                template = _args_decode_cache.get(tail)
                if template is not None:
                    args = tuple([_copy_plain(arg) for arg in template])
                    counters.any_span_hits += 1
                else:
                    decoder = CDRDecoder(data)
                    decoder._offset = 12 + length
                    count = decoder.read_ulong()
                    args = tuple([decoder.read_any() for _ in range(count)])
                    if len(tail) <= _SPAN_LIMIT:
                        # The template gets its own copy: callers own
                        # (and may mutate) the args we hand back.
                        _args_decode_cache.put(
                            tail, tuple([_copy_plain(arg) for arg in args])
                        )
                    counters.any_span_misses += 1
                request = Request(
                    target,
                    operation,
                    args,
                    kind=kind,
                    command_target=command_target,
                    service_contexts=dict(ctx),
                    response_expected=expected,
                    request_id=_S_ULONG.unpack_from(data, 8)[0],
                )
                if counters.enabled:
                    counters.decode_calls += 1
                    counters.decode_ns += time.perf_counter_ns() - start
                    counters.decode_bytes += len(data)
                return request
    decoder = CDRDecoder(data)
    if _read_header(decoder) != MSG_REQUEST:
        raise MARSHAL("expected a GIOP Request message")
    request_id = decoder.read_ulong()
    target = IOR.decode(decoder.read_octets())
    operation = decoder.read_string()
    kind = decoder.read_string()
    command_target = decoder.read_string() or None
    response_expected = decoder.read_boolean()
    contexts = decoder.read_any()
    if not isinstance(contexts, dict):
        raise MARSHAL("service contexts must decode to a map")
    preamble_end = decoder._offset
    count = decoder.read_ulong()
    args = tuple([decoder.read_any() for _ in range(count)])
    if _scalar_contexts(contexts):
        length = preamble_end - 12
        _request_decode_cache.put(
            data[12:preamble_end],
            (target, operation, kind, command_target, response_expected,
             dict(contexts)),
        )
        if (
            length not in _request_decode_lengths
            and len(_request_decode_lengths) < _DECODE_LENGTH_LIMIT
        ):
            _request_decode_lengths.append(length)
    request = Request(
        target,
        operation,
        args,
        kind=kind,
        command_target=command_target,
        service_contexts=contexts,
        response_expected=response_expected,
        request_id=request_id,
    )
    if counters.enabled:
        counters.decode_calls += 1
        counters.decode_ns += time.perf_counter_ns() - start
        counters.decode_bytes += len(data)
    return request


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
    pools: Optional[Any] = None,
) -> bytes:
    """Flatten a reply: a result, a user exception or a system exception."""
    counters = COUNTERS
    start = time.perf_counter_ns() if counters.enabled else 0
    encoder = pools.acquire_encoder() if pools is not None else CDREncoder()
    encoder.write_raw(_REPLY_PREFIX + _S_ULONG.pack(request_id))
    _write_contexts(encoder, service_contexts or {})
    if exception is None:
        frozen_result = _freeze(result)
        if frozen_result is not _UNFREEZABLE:
            result_key = (len(encoder) % 8, frozen_result)
            span = _result_encode_cache.get(result_key)
            if span is not None:
                encoder.write_raw(span)
                counters.any_span_hits += 1
            else:
                mark = encoder.mark()
                encoder.write_octet(NO_EXCEPTION)
                encoder.write_any(result)
                span = encoder.bytes_since(mark)
                if len(span) <= _SPAN_LIMIT:
                    _result_encode_cache.put(result_key, span)
                counters.any_span_misses += 1
        else:
            encoder.write_octet(NO_EXCEPTION)
            encoder.write_any(result)
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
    wire = encoder.getvalue()
    if pools is not None:
        pools.release_encoder(encoder)
    if counters.enabled:
        counters.encode_calls += 1
        counters.encode_ns += time.perf_counter_ns() - start
        counters.encode_bytes += len(wire)
    return wire


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
    counters = COUNTERS
    start = time.perf_counter_ns() if counters.enabled else 0
    decoder = CDRDecoder(data)
    contexts = None
    if data[:_HEADER_SIZE] == _HEADER_WIRE[MSG_REPLY]:
        for length in _reply_decode_lengths:
            cached = _reply_decode_cache.get(data[12 : 12 + length])
            if cached is not None:
                contexts = dict(cached)
                decoder._offset = 12 + length
                request_id = _S_ULONG.unpack_from(data, 8)[0]
                break
    if contexts is None:
        if _read_header(decoder) != MSG_REPLY:
            raise MARSHAL("expected a GIOP Reply message")
        request_id = decoder.read_ulong()
        contexts = decoder.read_any()
        if not isinstance(contexts, dict):
            raise MARSHAL("service contexts must decode to a map")
        preamble_end = decoder._offset
        if _scalar_contexts(contexts):
            length = preamble_end - 12
            _reply_decode_cache.put(data[12:preamble_end], dict(contexts))
            if (
                length not in _reply_decode_lengths
                and len(_reply_decode_lengths) < _DECODE_LENGTH_LIMIT
            ):
                _reply_decode_lengths.append(length)
    tail = data[decoder._offset:]
    template = _result_decode_cache.get(tail)
    if template is not None:
        # Stored as a 1-tuple so a legitimate None result still hits.
        reply = Reply(request_id, contexts, _copy_plain(template[0]), None)
        counters.any_span_hits += 1
        if counters.enabled:
            counters.decode_calls += 1
            counters.decode_ns += time.perf_counter_ns() - start
            counters.decode_bytes += len(data)
        return reply
    status = decoder.read_octet()
    if status == NO_EXCEPTION:
        result = decoder.read_any()
        reply = Reply(request_id, contexts, result, None)
        if len(tail) <= _SPAN_LIMIT:
            _result_decode_cache.put(tail, (_copy_plain(result),))
        counters.any_span_misses += 1
    elif status == USER_EXCEPTION:
        repo_id = decoder.read_string()
        message = decoder.read_string()
        members = decoder.read_any()
        exception = user_exception_from_wire(repo_id, message, members)
        reply = Reply(request_id, contexts, None, exception)
    elif status == SYSTEM_EXCEPTION:
        repo_id = decoder.read_string()
        message = decoder.read_string()
        minor = decoder.read_long()
        exception = system_exception_from_wire(repo_id, message, minor)
        reply = Reply(request_id, contexts, None, exception)
    else:
        raise MARSHAL(f"unknown reply status: {status}")
    if counters.enabled:
        counters.decode_calls += 1
        counters.decode_ns += time.perf_counter_ns() - start
        counters.decode_bytes += len(data)
    return reply
