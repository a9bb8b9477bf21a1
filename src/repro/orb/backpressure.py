"""Client-side backpressure state: the server's retry-after hints.

The serving side piggybacks a retry-after service context
(:data:`~repro.orb.contexts.RETRY_AFTER_CONTEXT`) on replies once its
queue passes the backpressure watermark, and on every OVERLOAD
rejection.  The invocation path (:func:`repro.orb.invocation.absorb_reply`)
feeds those hints into the client ORB's :class:`Backpressure` tracker.
The tracker is mechanism and lives with the ORB that owns it; what to
*do* about a hint is policy installed from above —
:class:`repro.sched.backpressure.PacingMediator` waits it out, the
reliability retry loop folds it into its backoff.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.orb.contexts import RETRY_AFTER_CONTEXT


class Backpressure:
    """Per-destination-host retry-after bookkeeping on one client ORB."""

    __slots__ = ("_hints", "hints_observed")

    def __init__(self) -> None:
        #: host -> (simulated instant until which to hold off).
        self._hints: Dict[str, float] = {}
        self.hints_observed = 0

    def note(self, host: str, retry_after: float, now: float) -> None:
        """Record a hint received from ``host`` at ``now``."""
        if retry_after <= 0.0:
            return
        until = now + retry_after
        if until > self._hints.get(host, 0.0):
            self._hints[host] = until
        self.hints_observed += 1

    def observe_reply(
        self, host: str, service_contexts: Optional[Dict[str, Any]], now: float
    ) -> None:
        """Harvest the scheduler's hint from a reply's service contexts."""
        if not service_contexts:
            return
        hint = service_contexts.get(RETRY_AFTER_CONTEXT)
        if hint is not None:
            self.note(host, float(hint), now)

    def retry_delay(
        self, host: str, error: Any, now: float, floor: float = 0.0
    ) -> float:
        """Seconds to hold off before *retrying* ``host`` after ``error``.

        Merges every hint available: the tracked per-host retry-after
        state, a ``retry_after`` the failed reply carried directly
        (recorded here too, so later calls see it), and the retry
        policy's backoff ``floor``.  The reliability layer's retry loop
        calls this so its exponential backoff never undercuts the
        server's own advertised recovery time.
        """
        direct = getattr(error, "retry_after", None)
        if direct is not None:
            self.note(host, float(direct), now)
        return max(floor, self.suggested_delay(host, now))

    def suggested_delay(self, host: str, now: float) -> float:
        """Seconds a polite client should wait before calling ``host``."""
        until = self._hints.get(host)
        if until is None:
            return 0.0
        if until <= now:
            del self._hints[host]
            return 0.0
        return until - now

    def snapshot(self) -> Dict[str, Any]:
        return {"hints_observed": self.hints_observed, "active": dict(self._hints)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Backpressure(active={len(self._hints)})"
