"""Interoperable Object References.

An IOR names a remote object: a repository type id plus an IIOP-style
profile (host, port, object key) and a list of tagged components.
MAQS adds the **QoS tag** (Section 4): "If a request is QoS aware —
which can be determined by a distinct tag in the interoperable object
reference — it is handed over to the QoS transport."  The QoS
component carries the characteristics the server offers and, for
group-served objects, the multicast group address and member list.

IORs are value objects: once constructed (or decoded) they are never
mutated — :meth:`with_component` returns a copy.  That invariant lets
the hot path memoise the CDR encoding, the stringified form, the QoS
flag and the binding key per instance, and share parsed references
through bounded LRU caches keyed by the wire/text form.
"""

from __future__ import annotations

import binascii
from typing import Any, Dict, List, Optional

from repro.orb.cdr import CDRDecoder, CDREncoder
from repro.orb.exceptions import MARSHAL
from repro.perf.counters import COUNTERS
from repro.perf.lru import LRUCache

#: Component tag marking a QoS-aware object reference (Section 4).
QOS_TAG = 0x4D415153  # "MAQS"

#: Component tag carrying a replica-group address and member references.
GROUP_TAG = 0x47525550  # "GRUP"

#: Parsed references keyed by CDR bytes / stringified text.  Every
#: incoming request whose preamble is new (a per-call deadline context
#: makes that every request of ``qos_bound``) re-delivers the same
#: handful of target references.  Kept: without the two ``qos_bound``
#: pays 125.2 -> 139.8 us (DESIGN.md, the ablation table).
_decode_cache = LRUCache(maxsize=512)
_parse_cache = LRUCache(maxsize=512)


def clear_caches() -> None:
    """Drop the parse caches (tests and memory hygiene)."""
    _decode_cache.clear()
    _parse_cache.clear()


class TaggedComponent:
    """A (tag, data) pair attached to an IOR profile."""

    __slots__ = ("tag", "data")

    def __init__(self, tag: int, data: Dict[str, Any]) -> None:
        self.tag = tag
        self.data = data

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TaggedComponent)
            and self.tag == other.tag
            and self.data == other.data
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaggedComponent(0x{self.tag:X}, {self.data!r})"


class IIOPProfile:
    """Where the object lives: host, port and the adapter's object key."""

    __slots__ = ("host", "port", "object_key")

    def __init__(self, host: str, port: int, object_key: str) -> None:
        self.host = host
        self.port = port
        self.object_key = object_key

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IIOPProfile)
            and (self.host, self.port, self.object_key)
            == (other.host, other.port, other.object_key)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IIOPProfile({self.host}:{self.port}/{self.object_key})"


class IOR:
    """An interoperable object reference."""

    __slots__ = (
        "type_id",
        "profile",
        "components",
        "_wire",
        "_text",
        "_qos_aware",
        "_binding",
    )

    def __init__(
        self,
        type_id: str,
        profile: IIOPProfile,
        components: Optional[List[TaggedComponent]] = None,
    ) -> None:
        self.type_id = type_id
        self.profile = profile
        self.components = list(components or [])
        # Lazily filled memos; valid because IORs are value objects.
        self._wire: Optional[bytes] = None
        self._text: Optional[str] = None
        self._qos_aware: Optional[bool] = None
        self._binding: Optional[str] = None

    # -- components -----------------------------------------------------

    def component(self, tag: int) -> Optional[TaggedComponent]:
        """First component with the given tag, or None."""
        for component in self.components:
            if component.tag == tag:
                return component
        return None

    def with_component(self, component: TaggedComponent) -> "IOR":
        """A copy of this IOR with an extra component appended."""
        return IOR(self.type_id, self.profile, self.components + [component])

    @property
    def is_qos_aware(self) -> bool:
        """True if the reference carries the MAQS QoS tag."""
        aware = self._qos_aware
        if aware is None:
            aware = self.component(QOS_TAG) is not None
            self._qos_aware = aware
        return aware

    def qos_characteristics(self) -> List[str]:
        """Names of the QoS characteristics the server assigned (may be [])."""
        component = self.component(QOS_TAG)
        if component is None:
            return []
        return list(component.data.get("characteristics", []))

    def group_members(self) -> List["IOR"]:
        """Member references of a replica-group IOR (may be []).

        The :data:`GROUP_TAG` component carries each member as a
        stringified reference (strings survive ``write_any`` untouched
        and the parse cache absorbs the repeated decoding).  Used by
        the reliability layer's failover to re-bind to the next member
        on fail-stop.
        """
        component = self.component(GROUP_TAG)
        if component is None:
            return []
        return [IOR.from_string(text) for text in component.data.get("members", [])]

    def binding_key(self) -> str:
        """Canonical ``host:port/key`` naming this client/server relationship."""
        binding = self._binding
        if binding is None:
            profile = self.profile
            binding = f"{profile.host}:{profile.port}/{profile.object_key}"
            self._binding = binding
        return binding

    # -- stringification --------------------------------------------------

    def encode(self) -> bytes:
        """CDR encoding of the full reference (memoised)."""
        wire = self._wire
        if wire is None:
            encoder = CDREncoder()
            encoder.write_string(self.type_id)
            encoder.write_string(self.profile.host)
            encoder.write_ulong(self.profile.port)
            encoder.write_string(self.profile.object_key)
            encoder.write_ulong(len(self.components))
            for component in self.components:
                encoder.write_ulong(component.tag)
                encoder.write_any(component.data)
            wire = encoder.getvalue()
            self._wire = wire
        return wire

    @classmethod
    def decode(cls, data: bytes) -> "IOR":
        """Inverse of :meth:`encode` (cached by wire bytes)."""
        key = bytes(data)
        cached = _decode_cache.get(key)
        if cached is not None:
            COUNTERS.ior_parse_hits += 1
            return cached
        COUNTERS.ior_parse_misses += 1
        decoder = CDRDecoder(key)
        type_id = decoder.read_string()
        host = decoder.read_string()
        port = decoder.read_ulong()
        object_key = decoder.read_string()
        count = decoder.read_ulong()
        components = []
        for _ in range(count):
            tag = decoder.read_ulong()
            payload = decoder.read_any()
            if not isinstance(payload, dict):
                raise MARSHAL("tagged component payload must decode to a map")
            components.append(TaggedComponent(tag, payload))
        ior = cls(type_id, IIOPProfile(host, port, object_key), components)
        ior._wire = key  # decoding round-trips, so keep the wire form too
        _decode_cache.put(key, ior)
        return ior

    def to_string(self) -> str:
        """The classic ``IOR:<hex>`` stringified form (memoised)."""
        text = self._text
        if text is None:
            text = "IOR:" + binascii.hexlify(self.encode()).decode("ascii")
            self._text = text
        return text

    @classmethod
    def from_string(cls, text: str) -> "IOR":
        """Parse a stringified reference (cached by text)."""
        cached = _parse_cache.get(text)
        if cached is not None:
            COUNTERS.ior_parse_hits += 1
            return cached
        COUNTERS.ior_parse_misses += 1
        if not text.startswith("IOR:"):
            raise MARSHAL(f"not a stringified IOR: {text[:16]!r}")
        try:
            raw = binascii.unhexlify(text[4:])
        except (binascii.Error, ValueError) as error:
            raise MARSHAL(f"bad IOR hex: {error}") from None
        ior = cls.decode(raw)
        _parse_cache.put(text, ior)
        return ior

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IOR) and self.encode() == other.encode()

    def __hash__(self) -> int:
        return hash(self.encode())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        qos = " +QoS" if self.is_qos_aware else ""
        return f"IOR({self.type_id} @ {self.profile!r}{qos})"
