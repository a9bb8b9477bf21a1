"""Request scheduling: admission control, fair queuing, overload protection.

The policy layer of the serving path — see :mod:`repro.sched.scheduler`
for the subsystem overview and ``DESIGN.md`` ("Request scheduling &
admission control") for where it sits on Figure 3's dispatch path.
"""

from repro.sched.backpressure import PacingMediator
from repro.sched.policies import (
    POLICIES,
    FIFOPolicy,
    SchedulerPolicy,
    StrictPriorityPolicy,
    WFQPolicy,
    create_policy,
)
from repro.sched.scheduler import (
    BINDING_CONTEXT,
    CLASS_CONTEXT,
    CONTROL_CLASS,
    DEFAULT_CLASS,
    OVERLOAD_DEADLINE,
    OVERLOAD_QUEUE,
    OVERLOAD_RATE,
    RETRY_AFTER_CONTEXT,
    Grant,
    QoSClass,
    RequestScheduler,
)
from repro.sched.token_bucket import TokenBucket

__all__ = [
    "BINDING_CONTEXT",
    "CLASS_CONTEXT",
    "CONTROL_CLASS",
    "DEFAULT_CLASS",
    "FIFOPolicy",
    "Grant",
    "OVERLOAD_DEADLINE",
    "OVERLOAD_QUEUE",
    "OVERLOAD_RATE",
    "PacingMediator",
    "POLICIES",
    "QoSClass",
    "RETRY_AFTER_CONTEXT",
    "RequestScheduler",
    "SchedulerPolicy",
    "StrictPriorityPolicy",
    "TokenBucket",
    "WFQPolicy",
    "create_policy",
]
