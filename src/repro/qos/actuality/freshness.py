"""Freshness-bounded client caching: mediator and server impl."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.core.mediator import Mediator
from repro.core.qos_skeleton import QoSImplementation
from repro.orb.exceptions import BAD_PARAM


def _cache_key(operation: str, args: Tuple[Any, ...]) -> Tuple[str, str]:
    return operation, repr(args)


class ActualityMediator(Mediator):
    """Serve cacheable reads from a freshness-bounded client cache."""

    characteristic = "Actuality"

    def __init__(
        self,
        cacheable: Optional[Iterable[str]] = None,
        max_age: float = 1.0,
    ) -> None:
        super().__init__()
        self.max_age = max_age
        #: Operations safe to cache; empty set = cache nothing.
        self.cacheable: Set[str] = set(cacheable or ())
        self._cache: Dict[Tuple[str, str], Tuple[Any, float]] = {}
        self.hits = 0
        self.misses = 0

    def invoke(self, stub: Any, operation: str, args: Tuple[Any, ...]) -> Any:
        self.calls_intercepted += 1
        if operation not in self.cacheable:
            return self.issue(stub, operation, args)
        now = stub._orb.time_source.now
        key = _cache_key(operation, args)
        cached = self._cache.get(key)
        if cached is not None:
            value, stored_at = cached
            if now() - stored_at <= self.max_age:
                self.hits += 1
                return value
        self.misses += 1
        value = self.issue(stub, operation, args)
        self._cache[key] = (value, now())
        return value

    def invalidate(self, operation: Optional[str] = None) -> int:
        """Drop cached entries (all, or those of one operation)."""
        if operation is None:
            count = len(self._cache)
            self._cache.clear()
            return count
        stale = [key for key in self._cache if key[0] == operation]
        for key in stale:
            del self._cache[key]
        return len(stale)

    def observed_staleness(self, clock: Any, operation: str,
                           args: Tuple[Any, ...] = ()) -> float:
        """Age of the cached entry for one call (0.0 if none)."""
        cached = self._cache.get(_cache_key(operation, args))
        if cached is None:
            return 0.0
        return clock.now - cached[1]


class ActualityImpl(QoSImplementation):
    """Server side: modification stamps and remote invalidation."""

    characteristic = "Actuality"

    def __init__(self, clock: Optional[Any] = None) -> None:
        self.max_age = 1.0
        self._clock = clock
        self._last_modified = 0.0
        self.invalidations = 0

    def attach_clock(self, clock: Any) -> "ActualityImpl":
        self._clock = clock
        return self

    # QoS parameter accessors.
    def get_max_age(self) -> float:
        return self.max_age

    def set_max_age(self, value: float) -> None:
        if value < 0:
            raise BAD_PARAM("max_age must be non-negative")
        self.max_age = float(value)

    # Management operations.
    def invalidate(self, operation: str) -> None:
        self.invalidations += 1

    def last_modified(self) -> float:
        return self._last_modified

    def touch(self) -> None:
        """Record that the servant's data changed (servant calls this)."""
        if self._clock is not None:
            self._last_modified = self._clock.now

    # Weaving hooks: stamp writes.
    def epilog(
        self,
        servant: Any,
        operation: str,
        result: Any,
        contexts: Dict[str, Any],
    ) -> Any:
        if self._clock is not None and operation.startswith(("set_", "update", "write")):
            self._last_modified = self._clock.now
        return result
