"""CDR-style marshalling.

A Common Data Representation encoder/decoder in the spirit of CORBA
CDR: big-endian primitives with natural alignment, length-prefixed
strings and sequences, and a tagged ``any`` encoding for dynamically
typed values (used by the DII and by the GIOP bodies of this ORB).

The encoding is self-contained — both ends of the simulated wire
really do run through these byte buffers, so marshalling bugs fail
loudly rather than being papered over by passing Python objects
around.

Hot-path layout (this module is the single biggest cost in every
benchmark, so the implementation is tuned):

- the encoder appends into one ``bytearray`` through the precompiled
  :class:`struct.Struct` table of :mod:`repro.orb._cdr_fast` (the one
  copy of the primitive formats) — no chunk list, no per-call format
  parsing, one ``bytes()`` copy at :meth:`getvalue`;
- the decoder reads through a ``memoryview``, so nested decodes
  (strings, octet payloads handed to sub-decoders) never copy the
  underlying buffer more than the API forces them to;
- the tagged ``any`` encoding lives in one place, the flat codec in
  :mod:`repro.orb._cdr_fast`:
  :meth:`CDREncoder.write_any` / :meth:`CDRDecoder.read_any` delegate
  to it unconditionally.  Homogeneous sequences of floats/ints batch
  through one repeated ``struct`` format instead of n tagged writes;
  the batched bytes are **identical** to the tag-per-element encoding
  (each element keeps its tag octet and alignment padding), so
  batching is invisible on the wire.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

from repro.orb import _cdr_fast
from repro.orb._cdr_fast import (  # noqa: F401  (re-exported: the `any` type tags)
    TAG_BIGNUM,
    TAG_BOOLEAN,
    TAG_DOUBLE,
    TAG_FLOAT,
    TAG_LONG,
    TAG_LONGLONG,
    TAG_MAP,
    TAG_NULL,
    TAG_OCTET,
    TAG_OCTETS,
    TAG_SEQUENCE,
    TAG_SHORT,
    TAG_STRING,
    TAG_ULONG,
    TAG_USHORT,
    _PADDING,
    _S_DOUBLE,
    _S_FLOAT,
    _S_LONG,
    _S_LONGLONG,
    _S_OCTET,
    _S_SHORT,
    _S_ULONG,
    _S_USHORT,
    _read_octets,
    _read_string,
)
from repro.orb.exceptions import MARSHAL

#: A constant: frozen bench/worker.py:327 records it as ``cdr_impl``.
FAST_IMPL = "python"

#: Minimum sequence length for the homogeneous batch fast path; below
#: this the type scan costs more than it saves.
_BATCH_MIN = 4


class CDREncoder:
    """Write values into a CDR byte buffer."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    # -- low-level ------------------------------------------------------

    def write_raw(self, data: bytes) -> None:
        """Append pre-encoded bytes verbatim (no alignment).

        Callers own the alignment invariant: the bytes must have been
        produced at the same buffer offset modulo 8 (GIOP's constant
        headers and the service-context cache guarantee this).
        """
        self._buf += data

    def mark(self) -> int:
        """Current buffer length; pairs with :meth:`bytes_since`."""
        return len(self._buf)

    def bytes_since(self, mark: int) -> bytes:
        """Copy of everything appended since ``mark`` was taken."""
        return bytes(self._buf[mark:])

    # -- primitives -----------------------------------------------------

    def _write_fixed(self, compiled: struct.Struct, value: Any) -> None:
        """Pad to the primitive's natural alignment (its size), pack it."""
        buf = self._buf
        padding = -len(buf) % compiled.size
        if padding:
            buf += _PADDING[padding]
        try:
            buf += compiled.pack(value)
        except (struct.error, TypeError) as error:
            raise MARSHAL(
                f"cannot pack {value!r} as {compiled.format!r}: {error}"
            ) from None

    def write_octet(self, value: int) -> None:
        self._write_fixed(_S_OCTET, value)

    def write_boolean(self, value: bool) -> None:
        self._buf.append(1 if value else 0)

    def write_short(self, value: int) -> None:
        self._write_fixed(_S_SHORT, value)

    def write_ushort(self, value: int) -> None:
        self._write_fixed(_S_USHORT, value)

    def write_long(self, value: int) -> None:
        self._write_fixed(_S_LONG, value)

    def write_ulong(self, value: int) -> None:
        self._write_fixed(_S_ULONG, value)

    def write_longlong(self, value: int) -> None:
        self._write_fixed(_S_LONGLONG, value)

    def write_float(self, value: float) -> None:
        self._write_fixed(_S_FLOAT, value)

    def write_double(self, value: float) -> None:
        self._write_fixed(_S_DOUBLE, value)

    def write_string(self, value: str) -> None:
        if not isinstance(value, str):
            raise MARSHAL(f"expected str, got {type(value).__name__}")
        data = value.encode("utf-8")
        buf = self._buf
        padding = -len(buf) % 4
        if padding:
            buf += _PADDING[padding]
        buf += _S_ULONG.pack(len(data))
        buf += data

    def write_octets(self, value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise MARSHAL(f"expected bytes, got {type(value).__name__}")
        buf = self._buf
        padding = -len(buf) % 4
        if padding:
            buf += _PADDING[padding]
        buf += _S_ULONG.pack(len(value))
        buf += value

    # -- any --------------------------------------------------------------

    def write_any(self, value: Any) -> None:
        """Encode a dynamically typed value with a leading type tag.

        Python natives map onto the widest safe IDL type: ``int`` →
        long long, ``float`` → double.  Lists/tuples become sequences,
        dicts (string-keyed) become maps.
        """
        try:
            _cdr_fast.write_any(self._buf, value, _BATCH_MIN)
        except RecursionError:
            raise MARSHAL("any value is nested too deeply to marshal") from None

    def getvalue(self) -> bytes:
        """The encoded buffer."""
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class CDRDecoder:
    """Read values back out of a CDR byte buffer.

    Accepts ``bytes``, ``bytearray`` or ``memoryview``; scanning is
    zero-copy — only :meth:`read_octets` materialises new ``bytes``
    (its callers re-encode or compare the payload, so a real object is
    the safe return type).
    """

    __slots__ = ("_mv", "_len", "_offset")

    def __init__(self, data: bytes) -> None:
        self._mv = data if isinstance(data, memoryview) else memoryview(data)
        self._len = len(self._mv)
        self._offset = 0

    # -- low-level ------------------------------------------------------

    def _underrun(self, size: int, offset: int) -> MARSHAL:
        return MARSHAL(
            f"buffer underrun: need {size} bytes at {offset}, "
            f"have {self._len - offset}"
        )

    def _unpack(self, compiled: struct.Struct) -> Any:
        """Skip to the primitive's natural alignment (its size), read it."""
        offset = self._offset
        offset += -offset % compiled.size
        end = offset + compiled.size
        if end > self._len:
            self._offset = offset
            raise self._underrun(compiled.size, offset)
        self._offset = end
        return compiled.unpack_from(self._mv, offset)[0]

    def read_raw(self, size: int) -> bytes:
        """The next ``size`` bytes verbatim (no alignment)."""
        offset = self._offset
        end = offset + size
        if end > self._len:
            raise self._underrun(size, offset)
        self._offset = end
        return bytes(self._mv[offset:end])

    # -- primitives -----------------------------------------------------

    def read_octet(self) -> int:
        offset = self._offset
        if offset >= self._len:
            raise self._underrun(1, offset)
        self._offset = offset + 1
        return self._mv[offset]

    def read_boolean(self) -> bool:
        return bool(self.read_octet())

    def read_short(self) -> int:
        return self._unpack(_S_SHORT)

    def read_ushort(self) -> int:
        return self._unpack(_S_USHORT)

    def read_long(self) -> int:
        return self._unpack(_S_LONG)

    def read_ulong(self) -> int:
        # Inlined _unpack: sequence counts and length prefixes make this
        # the most-called aligned read on the wire path.
        offset = self._offset
        offset += -offset & 3
        end = offset + 4
        if end > self._len:
            self._offset = offset
            raise self._underrun(4, offset)
        self._offset = end
        return _S_ULONG.unpack_from(self._mv, offset)[0]

    def read_longlong(self) -> int:
        return self._unpack(_S_LONGLONG)

    def read_float(self) -> float:
        return self._unpack(_S_FLOAT)

    def read_double(self) -> float:
        return self._unpack(_S_DOUBLE)

    def read_string(self) -> str:
        value, self._offset = _read_string(self._mv, self._offset, self._len)
        return value

    def read_octets(self) -> bytes:
        value, self._offset = _read_octets(self._mv, self._offset, self._len)
        return value

    # -- any --------------------------------------------------------------

    def read_any(self) -> Any:
        try:
            value, self._offset = _cdr_fast.read_any(
                self._mv, self._offset, self._len, _BATCH_MIN
            )
        except RecursionError:
            raise MARSHAL("any value on the wire is nested too deeply") from None
        return value

    @property
    def remaining(self) -> int:
        """Bytes not yet consumed."""
        return self._len - self._offset

    def at_end(self) -> bool:
        return self._offset >= self._len


def encode_values(*values: Any) -> bytes:
    """Encode a tuple of values as a counted sequence of anys."""
    encoder = CDREncoder()
    encoder.write_ulong(len(values))
    for value in values:
        encoder.write_any(value)
    return encoder.getvalue()


def decode_values(data: bytes) -> Tuple[Any, ...]:
    """Inverse of :func:`encode_values`."""
    decoder = CDRDecoder(data)
    count = decoder.read_ulong()
    return tuple(decoder.read_any() for _ in range(count))
