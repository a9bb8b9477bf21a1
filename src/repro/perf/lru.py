"""A small bounded LRU map for hot-path caches.

``functools.lru_cache`` cannot be used for the GIOP/IOR caches: the
keys are built from request data at call time, misses must be handled
inline (the caller encodes and then inserts), and tests need to reset
the cache.  This is the minimal dict-ordered implementation: Python
dicts preserve insertion order, so eviction pops the oldest entry and
hits are refreshed by re-inserting.

Admission.  Building a key can cost more than the work it would save
(the GIOP span caches freeze a whole value tree to probe), so a cache
that keeps missing stops being consulted for a while.  A caller asks
:meth:`LRUCache.admit` *before* it builds a key and reports an admitted
lookup that found nothing with :meth:`LRUCache.missed` — once, however
many keys it probed.  The *k*-th consecutive such miss opens a bypass
of ``_BYPASS[k-1]`` lookups (the last entry repeats); a bypassed lookup
neither builds a key nor probes nor populates, and any hit resets the
count.  The first eight misses bypass nothing, so a key that recurs at
least once in eight lookups never starts a bypass; after that the
bypass is 2, 4, then 8 lookups: even, so the next admitted lookup is an
odd stride away and cannot stay in step with traffic that alternates
every 2 or 4 calls, and short, so a key that starts repeating after a
long unique run replays again within 18 lookups.  The rule uses no
clock and no randomness, so a run replays exactly.  Callers that never
ask ``admit`` see a plain LRU.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

#: Lookups bypassed after the 1st, 2nd, ... consecutive admitted miss;
#: the last entry repeats.
_BYPASS = (0,) * 8 + (2, 4, 8)
_LAST = len(_BYPASS) - 1


class LRUCache:
    """Bounded mapping with least-recently-used eviction."""

    __slots__ = (
        "_data", "maxsize", "hits", "misses", "_streak", "_streak_hits", "_skip"
    )

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive: {maxsize}")
        self.maxsize = maxsize
        self._data: Dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0
        #: Consecutive admitted misses, up to ``_LAST`` ...
        self._streak = 0
        #: ... counted while ``hits`` stays at this value.
        self._streak_hits = 0
        #: Lookups left to bypass.
        self._skip = 0

    def admit(self) -> bool:
        """Whether this lookup should consult the cache at all; each
        call while a bypass lasts spends one bypassed lookup."""
        if self._skip:
            self._skip -= 1
            return False
        return True

    def missed(self) -> None:
        """Report an admitted lookup that found nothing."""
        if self.hits != self._streak_hits:  # a hit ended the last streak
            self._streak_hits = self.hits
            self._streak = 0
        streak = self._streak
        self._skip = _BYPASS[streak]
        if streak < _LAST:
            self._streak = streak + 1

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, refreshed as most recent, or None."""
        data = self._data
        try:
            value = data.pop(key)
        except KeyError:
            self.misses += 1
            return None
        data[key] = value  # re-insert: now the newest entry
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        data = self._data
        if key in data:
            del data[key]
        elif len(data) >= self.maxsize:
            del data[next(iter(data))]  # evict the oldest entry
        data[key] = value

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self._streak = 0
        self._streak_hits = 0
        self._skip = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LRUCache({len(self._data)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )
