"""The reliability mediator: deadlines, retry, breaker, failover.

The MAQS mediator is the designated client-side interception point
(Section 3.3); :class:`ReliabilityMediator` uses it to turn raw
transport failures into recovery:

- **deadlines** — each call gets an absolute simulated-time budget,
  propagated in the :data:`~repro.orb.contexts.DEADLINE_CONTEXT`
  service context so the server's scheduler sheds work the caller will
  no longer wait for; local expiry raises
  :class:`~repro.orb.exceptions.TIMEOUT`.
- **retry with backoff** — failed calls are re-issued under the
  at-most-once rule (idempotent, or provably unexecuted), pausing in
  simulated time per the seeded
  :class:`~repro.reliability.retry.BackoffSchedule` merged with the
  server's retry-after hints via
  :meth:`~repro.orb.backpressure.Backpressure.retry_delay`.
- **circuit breaking** — a per-binding
  :class:`~repro.reliability.breaker.CircuitBreaker` fast-fails calls
  to a binding that keeps dying, with half-open probes.
- **replica failover** — fail-stop errors re-bind to the next member
  of a ``GROUP_TAG`` reference
  (:class:`~repro.reliability.failover.FailoverRotation`); the
  re-binding persists across calls.

Deferred (AMI) calls get the same treatment through
:class:`ReliableReplyFuture`: the underlying future rides the pipeline
untouched, and if its window dies mid-flush the wrapper replays the
call synchronously — only *unacknowledged* futures replay; a future
whose reply was correlated can never be re-issued.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.mediator import Mediator
from repro.orb import giop
from repro.orb.ami import ReplyFuture
from repro.orb.contexts import DEADLINE_CONTEXT
from repro.orb.exceptions import (
    COMM_FAILURE,
    OVERLOAD,
    SystemException,
    TIMEOUT,
    TRANSIENT,
    is_unexecuted,
    mark_unexecuted,
)
from repro.orb.ior import IOR
from repro.perf.counters import COUNTERS
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.failover import FailoverRotation
from repro.reliability.policy import BREAKER_OPEN_MINOR, ReliabilityPolicy
from repro.reliability.retry import BackoffSchedule

#: Errors that may be worth re-issuing at all (OVERLOAD is a TRANSIENT
#: subclass); everything else — BAD_OPERATION, MARSHAL, user errors —
#: is deterministic and retrying it would only repeat the answer.
RETRIABLE = (COMM_FAILURE, TRANSIENT)


class ReliabilityMediator(Mediator):
    """Client-side recovery for one (or a chain of) bindings."""

    characteristic = "__reliability__"

    def __init__(self, policy: Optional[ReliabilityPolicy] = None) -> None:
        super().__init__()
        self.policy = policy if policy is not None else ReliabilityPolicy()
        self.backoff = BackoffSchedule(self.policy)
        #: binding_key -> CircuitBreaker (one per physical target).
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: original binding_key -> FailoverRotation (persistent re-bind).
        self._rotations: Dict[str, FailoverRotation] = {}
        #: One-shot per-call deadline override (seconds), see
        #: :meth:`deadline_for_next_call`.
        self._next_deadline: Optional[float] = None
        self.retries_used = 0
        self.deadlines_expired = 0

    # -- configuration ----------------------------------------------------

    def deadline_for_next_call(self, seconds: Optional[float]) -> "ReliabilityMediator":
        """Set a one-shot deadline overriding the policy's for one call."""
        if seconds is not None and seconds <= 0.0:
            raise ValueError(f"deadline must be positive: {seconds}")
        self._next_deadline = seconds
        return self

    # -- interception -----------------------------------------------------

    def invoke(self, stub: Any, operation: str, args: Tuple[Any, ...]) -> Any:
        self.calls_intercepted += 1
        deadline_at = self._deadline_at(stub)
        if getattr(stub, "_deferred_depth", 0):
            return self._invoke_deferred(stub, operation, args, deadline_at)
        return self._run(stub, operation, args, deadline_at, attempt=0, error=None)

    # -- the recovery loop ------------------------------------------------

    def _run(
        self,
        stub: Any,
        operation: str,
        args: Tuple[Any, ...],
        deadline_at: Optional[float],
        attempt: int,
        error: Optional[SystemException],
    ) -> Any:
        """Issue (or, with ``error`` set, re-issue) until settled.

        Entered at ``attempt=0, error=None`` for a fresh call, or with
        the failure of an already-issued attempt (the AMI replay path).
        Returns the operation result or raises the terminal exception.
        """
        orb = stub._orb
        while True:
            if error is None:
                self._check_deadline(stub, deadline_at)
                target: Optional[IOR] = None
                try:
                    target = self._select_target(stub, orb.time_source.now())
                    return_value = self._issue(
                        stub, operation, args, target, deadline_at
                    )
                except SystemException as exc:
                    if target is not None:
                        self._breaker(target).record_failure(orb.time_source.now())
                    error = exc
                else:
                    self._breaker(target).record_success()
                    return return_value
            if not self.may_retry(stub, operation, error):
                raise error
            if attempt >= self.policy.max_retries:
                COUNTERS.rel_retry_exhausted += 1
                raise error
            attempt += 1
            self.retries_used += 1
            COUNTERS.rel_retries += 1
            self._pause_and_rebind(stub, error, attempt, deadline_at)
            error = None

    def may_retry(self, stub: Any, operation: str, error: Exception) -> bool:
        """At-most-once gate: is re-issuing ``operation`` safe and useful?"""
        if not isinstance(error, RETRIABLE):
            return False
        if operation in getattr(stub, "_idempotent_ops", frozenset()):
            return True
        if operation in self.policy.idempotent_ops:
            return True
        return is_unexecuted(error)

    def _issue(
        self,
        stub: Any,
        operation: str,
        args: Tuple[Any, ...],
        target: IOR,
        deadline_at: Optional[float],
    ) -> Any:
        contexts = (
            {DEADLINE_CONTEXT: deadline_at} if deadline_at is not None else None
        )
        return stub._invoke(operation, args, contexts, target)

    def _check_deadline(self, stub: Any, deadline_at: Optional[float]) -> None:
        if deadline_at is not None and stub._orb.time_source.now() >= deadline_at:
            self.deadlines_expired += 1
            COUNTERS.rel_deadline_expired += 1
            raise TIMEOUT(
                f"reliability deadline {deadline_at:.6f}s expired before issue"
            )

    def _pause_and_rebind(
        self,
        stub: Any,
        error: SystemException,
        attempt: int,
        deadline_at: Optional[float],
    ) -> None:
        """Wait out the backoff (simulated time) and/or fail over."""
        orb = stub._orb
        rotation = self._rotation(stub)
        failing_host = rotation.active.profile.host
        fail_over = (
            self.policy.failover
            and len(rotation) > 1
            # An overloaded server is alive — stay and back off; a
            # breaker fast-fail means every member looked dead, so
            # rotating again buys nothing over waiting the cooldown.
            and not isinstance(error, OVERLOAD)
            and getattr(error, "minor", 0) != BREAKER_OPEN_MINOR
        )
        if fail_over:
            # Re-bind immediately: a retry-after hint binds the host
            # being left, not the next member (still record it so a
            # later rotation back sees it).
            retry_after = getattr(error, "retry_after", None)
            if retry_after:
                orb.backpressure.note(
                    failing_host, float(retry_after), orb.time_source.now()
                )
            rotation.advance()
            delay = 0.0
        else:
            delay = orb.backpressure.retry_delay(
                failing_host, error, orb.time_source.now(), self.backoff.delay(attempt)
            )
        if deadline_at is not None and orb.time_source.now() + delay >= deadline_at:
            self.deadlines_expired += 1
            COUNTERS.rel_deadline_expired += 1
            raise TIMEOUT(
                f"backoff of {delay:.6f}s would overrun the deadline "
                f"{deadline_at:.6f}s"
            ) from error
        if delay > 0.0:
            orb.time_source.wait(delay)

    # -- deferred (AMI) calls ---------------------------------------------

    def _invoke_deferred(
        self,
        stub: Any,
        operation: str,
        args: Tuple[Any, ...],
        deadline_at: Optional[float],
    ) -> "ReliableReplyFuture":
        future = ReliableReplyFuture(self, stub, operation, args, deadline_at)
        orb = stub._orb
        target: Optional[IOR] = None
        try:
            self._check_deadline(stub, deadline_at)
            target = self._select_target(stub, orb.time_source.now())
            inner = self._issue(stub, operation, args, target, deadline_at)
        except SystemException as exc:
            if target is not None:
                self._breaker(target).record_failure(orb.time_source.now())
            future._complete_with_recovery(exc, attempt=0)
            return future
        future._adopt(inner, target)
        return future

    def _recover_deferred(
        self,
        stub: Any,
        operation: str,
        args: Tuple[Any, ...],
        deadline_at: Optional[float],
        error: SystemException,
        attempt: int,
    ) -> Any:
        """Run the synchronous recovery loop on a deferred call's behalf.

        The deferred flag is parked so re-issues run the synchronous
        path (a replay must settle now, not join another window).
        """
        owner = getattr(stub, "_stub", stub)  # unwrap a chain view
        saved = owner._deferred_depth
        owner._deferred_depth = 0
        try:
            return self._run(stub, operation, args, deadline_at, attempt, error)
        finally:
            owner._deferred_depth = saved

    # -- control-plane membership updates ---------------------------------

    def update_group(
        self,
        stub: Any,
        members: Any,
        draining: Any = (),
        prefer: Optional[int] = None,
    ) -> IOR:
        """Publish a new replica-group view for ``stub``'s rotation.

        Called by the control plane (:mod:`repro.control`) when it
        grows, shrinks or rebalances the group behind a reference:
        ``members`` is the new member list, ``draining`` the binding
        keys of members being retired — the rotation stops selecting
        those immediately, so no new request is dispatched to a
        retiring member after its drain begins.  ``prefer`` biases the
        re-bind so a fleet of clients can be spread deterministically
        across the members.  Returns the (possibly re-bound) active
        member.
        """
        return self.rotation_for(stub).update(members, draining, prefer)

    def rotation_for(self, stub: Any) -> FailoverRotation:
        """The (lazily created) rotation backing ``stub``'s binding."""
        return self._rotation(stub)

    # -- bookkeeping ------------------------------------------------------

    def _deadline_at(self, stub: Any) -> Optional[float]:
        seconds = (
            self._next_deadline
            if self._next_deadline is not None
            else self.policy.deadline
        )
        self._next_deadline = None
        if seconds is None:
            return None
        return stub._orb.time_source.now() + seconds

    def _rotation(self, stub: Any) -> FailoverRotation:
        key = stub._ior.binding_key()
        rotation = self._rotations.get(key)
        if rotation is None:
            rotation = FailoverRotation(stub._ior)
            self._rotations[key] = rotation
        return rotation

    def _breaker(self, target: IOR) -> CircuitBreaker:
        key = target.binding_key()
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                self.policy.breaker_threshold, self.policy.breaker_cooldown
            )
            self._breakers[key] = breaker
        return breaker

    def _select_target(self, stub: Any, now: float) -> IOR:
        """The member to call: the active binding, breaker permitting.

        With failover on, members whose breaker is open are skipped
        (persistently re-binding); when every member is dark the call
        fast-fails locally with a breaker-tagged TRANSIENT — marked
        unexecuted, since nothing was sent.
        """
        rotation = self._rotation(stub)
        for _ in range(len(rotation)):
            target = rotation.active
            if self._breaker(target).allow(now):
                return target
            if self.policy.failover and len(rotation) > 1:
                rotation.advance()
            else:
                break
        COUNTERS.rel_breaker_fast_fails += 1
        raise mark_unexecuted(
            TRANSIENT(
                f"circuit breaker open for {rotation.active.binding_key()}",
                minor=BREAKER_OPEN_MINOR,
            )
        )


class ReliableReplyFuture(ReplyFuture):
    """A deferred call's handle with recovery woven in.

    Wraps the pipeline's own :class:`~repro.orb.ami.ReplyFuture`: while
    the window is healthy this is a transparent pass-through (same
    request id, same ready time, same reply bytes).  If the inner
    future fails — the window died mid-flush, the server shed the
    request — the wrapper replays the call through the mediator's
    synchronous recovery loop and resolves exactly once with the final
    outcome.  Futures whose reply arrived are *acknowledged* and are
    never replayed.
    """

    __slots__ = (
        "_mediator",
        "_stub",
        "_operation",
        "_args",
        "_deadline_at",
        "_inner",
        "_target",
    )

    def __init__(
        self,
        mediator: ReliabilityMediator,
        stub: Any,
        operation: str,
        args: Tuple[Any, ...],
        deadline_at: Optional[float],
    ) -> None:
        super().__init__(stub._orb, 0, stub._ior.profile.host, None)
        self._mediator = mediator
        self._stub = stub
        self._operation = operation
        self._args = args
        self._deadline_at = deadline_at
        self._inner: Optional[ReplyFuture] = None
        self._target: Optional[IOR] = None

    def _adopt(self, inner: ReplyFuture, target: IOR) -> None:
        self._inner = inner
        self._target = target
        self.request_id = inner.request_id
        self.dest_host = inner.dest_host
        inner.add_done_callback(self._on_inner_done)

    def flush(self) -> "ReliableReplyFuture":
        inner = self._inner
        if not self._done and inner is not None:
            inner.flush()
        return self

    def _on_inner_done(self, inner: ReplyFuture) -> None:
        if self._done:
            return
        error = inner.error
        orb = self._orb
        known_at = max(orb.time_source.now(), inner.ready_time)
        breaker = self._mediator._breaker(self._target)
        if error is None:
            # Acknowledged: the reply correlated back — never replayed.
            breaker.record_success()
            self._resolve(inner._reply, None, inner.ready_time)
            return
        breaker.record_failure(known_at)
        COUNTERS.rel_replays += 1
        orb.time_source.wait_until(known_at)
        self._complete_with_recovery(error, attempt=0)

    def _complete_with_recovery(
        self, error: SystemException, attempt: int
    ) -> None:
        """Settle this future by running the synchronous recovery loop."""
        orb = self._orb
        try:
            value = self._mediator._recover_deferred(
                self._stub,
                self._operation,
                self._args,
                self._deadline_at,
                error,
                attempt,
            )
        except SystemException as final:
            self._resolve(
                None,
                final,
                orb.time_source.now(),
                transport=bool(getattr(final, "unexecuted", False)),
            )
        else:
            reply = giop.Reply(self.request_id, {}, value, None)
            self._resolve(reply, None, orb.time_source.now())
