"""Reliability policy: the knobs of the client-side recovery layer.

One :class:`ReliabilityPolicy` parameterises everything the
:class:`~repro.reliability.mediator.ReliabilityMediator` does for a
binding — the deadline budget, the retry/backoff schedule, the circuit
breaker and failover.  Policies are plain value objects: share one
across many stubs bound to the same service class, or build one per
binding.

At-most-once discipline: a failed call is retried only when that
provably cannot duplicate an execution — the operation is declared
``idempotent`` (in QIDL, or here via ``idempotent_ops``), or the error
is known to have struck *before* the servant ran (see
:func:`repro.orb.exceptions.is_unexecuted`: forward-leg transport
failures and scheduler OVERLOAD rejections).
"""

from __future__ import annotations

from typing import Iterable, Optional


#: TRANSIENT minor code of a circuit-breaker fast-fail.
BREAKER_OPEN_MINOR = 0x0B0


class ReliabilityPolicy:
    """Configuration of one reliability-mediated binding."""

    __slots__ = (
        "deadline",
        "max_retries",
        "base_backoff",
        "backoff_multiplier",
        "max_backoff",
        "jitter",
        "seed",
        "breaker_threshold",
        "breaker_cooldown",
        "failover",
        "idempotent_ops",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_retries: int = 3,
        base_backoff: float = 1e-3,
        backoff_multiplier: float = 2.0,
        max_backoff: float = 0.25,
        jitter: float = 0.1,
        seed: int = 0,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 0.05,
        failover: bool = True,
        idempotent_ops: Iterable[str] = (),
    ) -> None:
        if deadline is not None and deadline <= 0.0:
            raise ValueError(f"deadline must be positive: {deadline}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {max_retries}")
        if base_backoff < 0.0 or max_backoff < 0.0:
            raise ValueError("backoff bounds must be non-negative")
        if backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1: {backoff_multiplier}"
            )
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1): {jitter}")
        if breaker_threshold < 1:
            raise ValueError(f"breaker_threshold must be >= 1: {breaker_threshold}")
        if breaker_cooldown < 0.0:
            raise ValueError(f"breaker_cooldown must be >= 0: {breaker_cooldown}")
        #: Per-call time budget in simulated seconds (None = unbounded).
        self.deadline = deadline
        #: Re-issues allowed after the first attempt.
        self.max_retries = max_retries
        self.base_backoff = base_backoff
        self.backoff_multiplier = backoff_multiplier
        self.max_backoff = max_backoff
        #: Fractional spread around each backoff delay (±jitter).
        self.jitter = jitter
        #: Seeds the jitter RNG: identical seeds replay identical delays.
        self.seed = seed
        #: Consecutive failures that open a binding's breaker.
        self.breaker_threshold = breaker_threshold
        #: Seconds an open breaker waits before a half-open probe.
        self.breaker_cooldown = breaker_cooldown
        #: Re-bind to the next GROUP_TAG member on fail-stop errors.
        self.failover = failover
        #: Operations retriable-by-declaration beyond the stub's own
        #: QIDL ``idempotent`` set.
        self.idempotent_ops = frozenset(idempotent_ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReliabilityPolicy(deadline={self.deadline}, "
            f"retries={self.max_retries}, failover={self.failover})"
        )
