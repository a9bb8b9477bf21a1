"""Flat CDR ``any`` codec — the one implementation of the tagged encoding.

:meth:`repro.orb.cdr.CDREncoder.write_any` and
:meth:`repro.orb.cdr.CDRDecoder.read_any` delegate here.  The codec is
module-level functions that keep the buffer, the offset and the
precompiled :class:`struct.Struct` packers in locals, and inline the
common leaf tags (string, int64, double, boolean, octets) straight
into the map/sequence loops, so a deep payload map costs no attribute
load/store or bound-method call per element.

Byte identity is a hard contract: a batched homogeneous run must
produce the same bytes as the tag-per-element loop, and every read
must reject malformed input with
:class:`~repro.orb.exceptions.MARSHAL`, never a bare ``struct.error``
or ``IndexError``.  ``tests/orb/test_cdr_fastpath.py`` (batched vs
unbatched, via ``cdr._BATCH_MIN``), ``tests/orb/test_cdr.py`` and
``tests/orb/test_adversarial_wire.py`` enforce both directions.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.orb.exceptions import MARSHAL
from repro.perf.counters import COUNTERS

# Type tags for the `any` encoding, defined here once and re-exported
# by repro.orb.cdr.
TAG_NULL = 0
TAG_BOOLEAN = 1
TAG_OCTET = 2
TAG_SHORT = 3
TAG_USHORT = 4
TAG_LONG = 5
TAG_ULONG = 6
TAG_LONGLONG = 7
TAG_DOUBLE = 8
TAG_STRING = 9
TAG_OCTETS = 10
TAG_SEQUENCE = 11
TAG_MAP = 12
TAG_FLOAT = 13
TAG_BIGNUM = 14

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: Padding runs indexed by length (alignment never needs more than 7).
_PADDING = tuple(b"\x00" * n for n in range(8))

# Fused tag-plus-padding blobs, indexed by the buffer position (mod
# alignment) *before* the tag byte: writing the blob leaves the buffer
# aligned for the field that follows.  One append replaces the
# append/test/pad sequence in the hot loops.
_STR_FUSE = tuple(
    bytes((TAG_STRING,)) + b"\x00" * (-(r + 1) & 3) for r in range(4)
)
_OCT_FUSE = tuple(
    bytes((TAG_OCTETS,)) + b"\x00" * (-(r + 1) & 3) for r in range(4)
)
_SEQ_FUSE = tuple(
    bytes((TAG_SEQUENCE,)) + b"\x00" * (-(r + 1) & 3) for r in range(4)
)
_MAP_FUSE = tuple(
    bytes((TAG_MAP,)) + b"\x00" * (-(r + 1) & 3) for r in range(4)
)
_LL_FUSE = tuple(
    bytes((TAG_LONGLONG,)) + b"\x00" * (-(r + 1) & 7) for r in range(8)
)
_DBL_FUSE = tuple(
    bytes((TAG_DOUBLE,)) + b"\x00" * (-(r + 1) & 7) for r in range(8)
)

#: Batch chunk size — bounds the repeated-format cache (the bytes are
#: identical at any chunking; the cache keys are what stay bounded).
_BATCH_CHUNK = 512

# The CDR primitive formats, compiled once: struct.Struct skips the
# per-call format parse and cache lookup struct.pack pays.  This table,
# _PADDING and the string/octets readers below are the only copy;
# repro.orb.cdr and repro.orb.giop import them.
_S_OCTET = struct.Struct(">B")
_S_SHORT = struct.Struct(">h")
_S_USHORT = struct.Struct(">H")
_S_LONG = struct.Struct(">i")
_S_ULONG = struct.Struct(">I")
_S_LONGLONG = struct.Struct(">q")
_S_FLOAT = struct.Struct(">f")
_S_DOUBLE = struct.Struct(">d")

_pack_short = _S_SHORT.pack
_pack_ushort = _S_USHORT.pack
_pack_long = _S_LONG.pack
_pack_ulong = _S_ULONG.pack
_pack_longlong = _S_LONGLONG.pack
_pack_float = _S_FLOAT.pack
_pack_double = _S_DOUBLE.pack

_unpack_short = _S_SHORT.unpack_from
_unpack_ushort = _S_USHORT.unpack_from
_unpack_long = _S_LONG.unpack_from
_unpack_ulong = _S_ULONG.unpack_from
_unpack_longlong = _S_LONGLONG.unpack_from
_unpack_float = _S_FLOAT.unpack_from
_unpack_double = _S_DOUBLE.unpack_from

#: Repeated-format structs for homogeneous batches, keyed by
#: (unit format, repetition count); bounded by _BATCH_CHUNK.
_BATCH_STRUCTS: Dict[Tuple[str, int], struct.Struct] = {}


def _batch_struct(unit: str, count: int) -> struct.Struct:
    key = (unit, count)
    compiled = _BATCH_STRUCTS.get(key)
    if compiled is None:
        compiled = struct.Struct(">" + unit * count)
        _BATCH_STRUCTS[key] = compiled
    return compiled


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def write_any(buf: bytearray, value: Any, batch_min: int) -> None:
    """Append the tagged ``any`` encoding of ``value`` to ``buf``.

    ``batch_min`` is the homogeneous-batch threshold (callers pass
    :data:`repro.orb.cdr._BATCH_MIN` so the test suite's batching
    escape hatch keeps working on this path too).
    """
    kind = type(value)
    if kind is dict:
        _write_map(buf, value, batch_min)
    elif kind is str:
        data = value.encode("utf-8")
        buf += _STR_FUSE[len(buf) & 3] + _pack_ulong(len(data)) + data
    elif kind is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            buf += _LL_FUSE[len(buf) & 7] + _pack_longlong(value)
        else:
            _write_bignum(buf, value)
    elif kind is float:
        buf += _DBL_FUSE[len(buf) & 7] + _pack_double(value)
    elif kind is bool:
        buf += b"\x01\x01" if value else b"\x01\x00"
    elif kind is list or kind is tuple:
        _write_sequence(buf, value, batch_min)
    elif kind is bytes or kind is bytearray:
        buf += _OCT_FUSE[len(buf) & 3] + _pack_ulong(len(value)) + value
    elif value is None:
        buf.append(TAG_NULL)
    else:
        _write_any_slow(buf, value, batch_min)


def _write_any_slow(buf: bytearray, value: Any, batch_min: int) -> None:
    """isinstance chain for subclasses of the native types."""
    if isinstance(value, bool):
        buf += b"\x01\x01" if value else b"\x01\x00"
    elif isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            buf.append(TAG_LONGLONG)
            padding = -len(buf) & 7
            if padding:
                buf += _PADDING[padding]
            buf += _pack_longlong(value)
        else:
            _write_bignum(buf, value)
    elif isinstance(value, float):
        buf.append(TAG_DOUBLE)
        padding = -len(buf) & 7
        if padding:
            buf += _PADDING[padding]
        buf += _pack_double(value)
    elif isinstance(value, str):
        buf.append(TAG_STRING)
        data = value.encode("utf-8")
        padding = -len(buf) & 3
        if padding:
            buf += _PADDING[padding]
        buf += _pack_ulong(len(data))
        buf += data
    elif isinstance(value, (bytes, bytearray)):
        buf.append(TAG_OCTETS)
        padding = -len(buf) & 3
        if padding:
            buf += _PADDING[padding]
        buf += _pack_ulong(len(value))
        buf += value
    elif isinstance(value, (list, tuple)):
        _write_sequence(buf, value, batch_min)
    elif isinstance(value, dict):
        _write_map(buf, value, batch_min)
    else:
        raise MARSHAL(f"cannot marshal value of type {type(value).__name__}")


def _write_bignum(buf: bytearray, value: int) -> None:
    # Arbitrary-precision integers (e.g. Diffie-Hellman public values)
    # travel as sign + magnitude octets.
    buf.append(TAG_BIGNUM)
    buf.append(1 if value < 0 else 0)
    magnitude = abs(value)
    data = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
    padding = -len(buf) & 3
    if padding:
        buf += _PADDING[padding]
    buf += _pack_ulong(len(data))
    buf += data


def _write_map(buf: bytearray, value: Dict[str, Any], batch_min: int) -> None:
    # The buffer position is tracked as a local int (``pos``) so the
    # alignment arithmetic never re-reads len(buf); any recursion into
    # write_any resynchronizes it.
    pos = len(buf)
    fuse = _MAP_FUSE[pos & 3]
    buf += fuse + _pack_ulong(len(value))
    pos += len(fuse) + 4
    for key, item in value.items():
        try:
            data = key.encode("utf-8")
        except AttributeError:
            raise MARSHAL(
                f"map keys must be str, got {type(key).__name__}"
            ) from None
        pad = -pos & 3
        if pad:
            buf += _PADDING[pad] + _pack_ulong(len(data)) + data
        else:
            buf += _pack_ulong(len(data)) + data
        pos += pad + 4 + len(data)
        # Inline the hottest value tags; everything else recurses.
        kind = type(item)
        if kind is str:
            data = item.encode("utf-8")
            fuse = _STR_FUSE[pos & 3]
            buf += fuse + _pack_ulong(len(data)) + data
            pos += len(fuse) + 4 + len(data)
        elif kind is int:
            if _INT64_MIN <= item <= _INT64_MAX:
                fuse = _LL_FUSE[pos & 7]
                buf += fuse + _pack_longlong(item)
                pos += len(fuse) + 8
            else:
                _write_bignum(buf, item)
                pos = len(buf)
        elif kind is float:
            fuse = _DBL_FUSE[pos & 7]
            buf += fuse + _pack_double(item)
            pos += len(fuse) + 8
        elif kind is bool:
            buf += b"\x01\x01" if item else b"\x01\x00"
            pos += 2
        else:
            write_any(buf, item, batch_min)
            pos = len(buf)


def _write_sequence(buf: bytearray, value: Any, batch_min: int) -> None:
    length = len(value)
    buf += _SEQ_FUSE[len(buf) & 3] + _pack_ulong(length)
    if length >= batch_min:
        first_type = type(value[0])
        if first_type is float:
            for item in value:
                if type(item) is not float:
                    break
            else:
                _write_batch(buf, value, _pack_double, "B7xd", TAG_DOUBLE)
                return
        elif first_type is int:
            for item in value:
                if type(item) is not int or not (
                    _INT64_MIN <= item <= _INT64_MAX
                ):
                    break
            else:
                _write_batch(buf, value, _pack_longlong, "B7xq", TAG_LONGLONG)
                return
    for item in value:
        write_any(buf, item, batch_min)


def _write_batch(
    buf: bytearray, value: Any, first_pack: Any, unit: str, tag: int
) -> None:
    """Emit a homogeneous 8-byte-element run, byte-identical to the
    generic loop: the first element settles 8-alignment, the rest are
    fixed 16-byte (tag + 7 pad + value) groups packed in bulk.
    """
    buf.append(tag)
    padding = -len(buf) & 7
    if padding:
        buf += _PADDING[padding]
    buf += first_pack(value[0])
    index = 1
    length = len(value)
    while index < length:
        count = min(length - index, _BATCH_CHUNK)
        args: List[Any] = []
        for item in value[index : index + count]:
            args.append(tag)
            args.append(item)
        buf += _batch_struct(unit, count).pack(*args)
        index += count
    COUNTERS.cdr_batch_encodes += 1


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def read_any(buf: Any, offset: int, size: int, batch_min: int) -> Tuple[Any, int]:
    """Decode one tagged ``any`` starting at ``offset``.

    ``buf`` is the bytes-like the caller scans (``bytes`` or
    ``memoryview``); returns ``(value, new_offset)``.  All malformed
    input — truncation, unknown tags, invalid UTF-8 — raises
    :class:`MARSHAL`.
    """
    if offset >= size:
        raise MARSHAL(
            f"buffer underrun: need 1 bytes at {offset}, have {size - offset}"
        )
    tag = buf[offset]
    offset += 1
    if tag == TAG_MAP:
        return _read_map(buf, offset, size, batch_min)
    if tag == TAG_STRING:
        return _read_string(buf, offset, size)
    if tag == TAG_LONGLONG:
        offset += -offset & 7
        end = offset + 8
        if end > size:
            raise MARSHAL(
                f"buffer underrun: need 8 bytes at {offset}, have {size - offset}"
            )
        return _unpack_longlong(buf, offset)[0], end
    if tag == TAG_DOUBLE:
        offset += -offset & 7
        end = offset + 8
        if end > size:
            raise MARSHAL(
                f"buffer underrun: need 8 bytes at {offset}, have {size - offset}"
            )
        return _unpack_double(buf, offset)[0], end
    if tag == TAG_SEQUENCE:
        return _read_sequence(buf, offset, size, batch_min)
    if tag == TAG_BOOLEAN:
        if offset >= size:
            raise MARSHAL(
                f"buffer underrun: need 1 bytes at {offset}, have {size - offset}"
            )
        return buf[offset] != 0, offset + 1
    if tag == TAG_OCTETS:
        return _read_octets(buf, offset, size)
    if tag == TAG_NULL:
        return None, offset
    if tag == TAG_OCTET:
        if offset >= size:
            raise MARSHAL(
                f"buffer underrun: need 1 bytes at {offset}, have {size - offset}"
            )
        return buf[offset], offset + 1
    if tag == TAG_SHORT:
        return _read_fixed(buf, offset, size, _unpack_short, 2, 2)
    if tag == TAG_USHORT:
        return _read_fixed(buf, offset, size, _unpack_ushort, 2, 2)
    if tag == TAG_LONG:
        return _read_fixed(buf, offset, size, _unpack_long, 4, 4)
    if tag == TAG_ULONG:
        return _read_fixed(buf, offset, size, _unpack_ulong, 4, 4)
    if tag == TAG_FLOAT:
        return _read_fixed(buf, offset, size, _unpack_float, 4, 4)
    if tag == TAG_BIGNUM:
        return _read_bignum(buf, offset, size)
    raise MARSHAL(f"unknown any tag: {tag}")


def _read_fixed(
    buf: Any, offset: int, size: int, unpack: Any, alignment: int, width: int
) -> Tuple[Any, int]:
    offset += -offset % alignment
    end = offset + width
    if end > size:
        raise MARSHAL(
            f"buffer underrun: need {width} bytes at {offset}, "
            f"have {size - offset}"
        )
    return unpack(buf, offset)[0], end


def _read_string(buf: Any, offset: int, size: int) -> Tuple[str, int]:
    offset += -offset & 3
    end = offset + 4
    if end > size:
        raise MARSHAL(
            f"buffer underrun: need 4 bytes at {offset}, have {size - offset}"
        )
    length = _unpack_ulong(buf, offset)[0]
    offset = end
    end = offset + length
    if end > size:
        raise MARSHAL(f"string of length {length} overruns buffer")
    try:
        value = str(buf[offset:end], "utf-8")
    except UnicodeDecodeError as error:
        raise MARSHAL(f"invalid UTF-8 string on the wire: {error}") from None
    return value, end


def _read_octets(buf: Any, offset: int, size: int) -> Tuple[bytes, int]:
    offset += -offset & 3
    end = offset + 4
    if end > size:
        raise MARSHAL(
            f"buffer underrun: need 4 bytes at {offset}, have {size - offset}"
        )
    length = _unpack_ulong(buf, offset)[0]
    offset = end
    end = offset + length
    if end > size:
        raise MARSHAL(f"octet sequence of length {length} overruns buffer")
    return bytes(buf[offset:end]), end


def _read_bignum(buf: Any, offset: int, size: int) -> Tuple[int, int]:
    if offset >= size:
        raise MARSHAL(
            f"buffer underrun: need 1 bytes at {offset}, have {size - offset}"
        )
    negative = buf[offset] != 0
    data, offset = _read_octets(buf, offset + 1, size)
    magnitude = int.from_bytes(data, "big")
    return -magnitude if negative else magnitude, offset


def _read_map(
    buf: Any, offset: int, size: int, batch_min: int
) -> Tuple[Dict[str, Any], int]:
    offset += -offset & 3
    end = offset + 4
    if end > size:
        raise MARSHAL(
            f"buffer underrun: need 4 bytes at {offset}, have {size - offset}"
        )
    count = _unpack_ulong(buf, offset)[0]
    offset = end
    result: Dict[str, Any] = {}
    for _ in range(count):
        # Inlined key read (read_string): map keys are the hottest
        # strings on the wire.
        offset += -offset & 3
        end = offset + 4
        if end > size:
            raise MARSHAL(
                f"buffer underrun: need 4 bytes at {offset}, "
                f"have {size - offset}"
            )
        key_length = _unpack_ulong(buf, offset)[0]
        offset = end
        end = offset + key_length
        if end > size:
            raise MARSHAL(f"string of length {key_length} overruns buffer")
        try:
            key = str(buf[offset:end], "utf-8")
        except UnicodeDecodeError as error:
            raise MARSHAL(
                f"invalid UTF-8 string on the wire: {error}"
            ) from None
        offset = end
        # Inline the hottest value tags; everything else recurses.
        if offset >= size:
            raise MARSHAL(
                f"buffer underrun: need 1 bytes at {offset}, "
                f"have {size - offset}"
            )
        tag = buf[offset]
        offset += 1
        if tag == TAG_STRING:
            result[key], offset = _read_string(buf, offset, size)
        elif tag == TAG_LONGLONG:
            offset += -offset & 7
            end = offset + 8
            if end > size:
                raise MARSHAL(
                    f"buffer underrun: need 8 bytes at {offset}, "
                    f"have {size - offset}"
                )
            result[key] = _unpack_longlong(buf, offset)[0]
            offset = end
        elif tag == TAG_DOUBLE:
            offset += -offset & 7
            end = offset + 8
            if end > size:
                raise MARSHAL(
                    f"buffer underrun: need 8 bytes at {offset}, "
                    f"have {size - offset}"
                )
            result[key] = _unpack_double(buf, offset)[0]
            offset = end
        elif tag == TAG_BOOLEAN:
            if offset >= size:
                raise MARSHAL(
                    f"buffer underrun: need 1 bytes at {offset}, "
                    f"have {size - offset}"
                )
            result[key] = buf[offset] != 0
            offset += 1
        else:
            result[key], offset = read_any(buf, offset - 1, size, batch_min)
    return result, offset


def _read_sequence(
    buf: Any, offset: int, size: int, batch_min: int
) -> Tuple[List[Any], int]:
    offset += -offset & 3
    end = offset + 4
    if end > size:
        raise MARSHAL(
            f"buffer underrun: need 4 bytes at {offset}, have {size - offset}"
        )
    count = _unpack_ulong(buf, offset)[0]
    offset = end
    if count >= batch_min and offset < size:
        first_tag = buf[offset]
        if first_tag == TAG_DOUBLE:
            decoded = _read_batch(
                buf, offset, size, count, _unpack_double, "B7xd", TAG_DOUBLE
            )
            if decoded is not None:
                return decoded
        elif first_tag == TAG_LONGLONG:
            decoded = _read_batch(
                buf, offset, size, count, _unpack_longlong, "B7xq", TAG_LONGLONG
            )
            if decoded is not None:
                return decoded
    out: List[Any] = []
    for _ in range(count):
        value, offset = read_any(buf, offset, size, batch_min)
        out.append(value)
    return out, offset


def _read_batch(
    buf: Any,
    offset: int,
    size: int,
    length: int,
    first_unpack: Any,
    unit: str,
    tag: int,
) -> Any:
    """Bulk-decode a homogeneous run; None means fall back (the run
    turned out to be heterogeneous or truncated — offset untouched)."""
    first_offset = offset + 1  # past the peeked tag octet
    first_offset += -first_offset & 7
    first_end = first_offset + 8
    if first_end > size:
        return None
    out = [first_unpack(buf, first_offset)[0]]
    cursor = first_end
    remaining = length - 1
    while remaining:
        count = min(remaining, _BATCH_CHUNK)
        compiled = _batch_struct(unit, count)
        if cursor + compiled.size > size:
            return None  # underrun or trailing mixed types: re-scan
        flat = compiled.unpack_from(buf, cursor)
        if flat[0::2].count(tag) != count:
            return None  # mixed element types: generic loop decodes
        out.extend(flat[1::2])
        cursor += compiled.size
        remaining -= count
    COUNTERS.cdr_batch_decodes += 1
    return out, cursor
