"""Client-side reliability: deadlines, retry/backoff, breaker, failover.

The recovery half of the fault-tolerance QoS category (Section 2):
:mod:`repro.netsim.faults` *injects* failures and
:mod:`repro.qos.fault_tolerance` *masks* them server-side; this
package makes the client survive the residue.  Everything runs on the
simulated clock and seeded RNGs, so every recovery trace is
deterministic and replayable — the property the chaos suite
(`tests/reliability/`) checks.

Quick start::

    from repro.reliability import ReliabilityPolicy, reliable

    stub = reliable(
        CounterStub(client_orb, group_ior),
        deadline=0.5, max_retries=4, seed=7,
    )
    stub.increment(1)   # retried / failed over / deadline-bounded
"""

from __future__ import annotations

from typing import Any, Optional

from repro.orb.contexts import DEADLINE_CONTEXT
from repro.reliability.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.reliability.failover import FailoverRotation
from repro.reliability.mediator import (
    RETRIABLE,
    ReliabilityMediator,
    ReliableReplyFuture,
)
from repro.reliability.policy import BREAKER_OPEN_MINOR, ReliabilityPolicy
from repro.reliability.retry import BackoffSchedule

__all__ = [
    "BREAKER_OPEN_MINOR",
    "BackoffSchedule",
    "CLOSED",
    "CircuitBreaker",
    "DEADLINE_CONTEXT",
    "FailoverRotation",
    "HALF_OPEN",
    "OPEN",
    "RETRIABLE",
    "ReliabilityMediator",
    "ReliabilityPolicy",
    "ReliableReplyFuture",
    "reliable",
]


def reliable(
    stub: Any, policy: Optional[ReliabilityPolicy] = None, **overrides: Any
) -> Any:
    """Install a :class:`ReliabilityMediator` on ``stub``; returns it.

    Pass a ready :class:`ReliabilityPolicy`, or policy fields as
    keyword arguments (``deadline=0.5, max_retries=4, ...``).
    """
    if policy is not None and overrides:
        raise ValueError("pass either a policy object or field overrides, not both")
    ReliabilityMediator(policy or ReliabilityPolicy(**overrides)).install(stub)
    return stub
