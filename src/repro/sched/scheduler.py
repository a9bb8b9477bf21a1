"""QoS-aware request scheduling between request receipt and dispatch.

The paper negotiates QoS contracts (Section 3) and enforces them with
mechanisms along the communication path (Section 4) — but a contract
is worthless once the server saturates if every request is served
FIFO.  :class:`RequestScheduler` sits between :meth:`ORB.handle_incoming`
and servant dispatch and makes the negotiated level mean something
under load:

- **admission control**: a server-wide queue-depth limit plus one
  token bucket per client/server binding, filled at the *negotiated*
  rate.  Non-admissible requests fail fast with
  :class:`~repro.orb.exceptions.OVERLOAD` (a TRANSIENT subclass)
  instead of queuing to death.
- **pluggable scheduling**: FIFO / strict priority / weighted fair
  queuing (see :mod:`repro.sched.policies`), swappable at runtime via
  QoS-transport commands — policy as a separable concern.
- **deadline shedding**: each class's deadline derives from its
  negotiated delay contract; a request whose projected wait already
  exceeds it is shed at arrival, not served late.
- **backpressure**: replies (and rejections) carry a retry-after hint
  in the service contexts so mediators can degrade gracefully
  (:mod:`repro.sched.backpressure`).

Install on a serving ORB with ``orb.install_scheduler(policy="wfq")``;
without a scheduler the POA's plain FIFO path is untouched.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Any, Dict, Iterable, List, Optional

from repro.netsim.network import WorkLedger
from repro.orb.contexts import (
    BINDING_CONTEXT,
    CHARACTERISTIC_CONTEXT,
    CLASS_CONTEXT,
    DEADLINE_CONTEXT,
    RETRY_AFTER_CONTEXT,
)
from repro.orb.exceptions import NO_RESOURCES, OVERLOAD
from repro.orb.request import Request
from repro.perf.counters import COUNTERS
from repro.sched.policies import SchedulerPolicy, create_policy
from repro.sched.token_bucket import TokenBucket

#: OVERLOAD minor codes.
OVERLOAD_QUEUE = 1
OVERLOAD_RATE = 2
OVERLOAD_DEADLINE = 3

#: Name of the implicit classes every scheduler owns.
DEFAULT_CLASS = "best-effort"
CONTROL_CLASS = "control"


class QoSClass:
    """One scheduling class: the enforcement side of a QoS level.

    ``weight`` feeds WFQ, ``priority`` (lower = more urgent) feeds the
    strict-priority policy, ``deadline`` bounds queueing delay before
    a request is shed, and ``rate``/``burst`` parameterise the
    admission token buckets.  ``control`` marks the negotiation plane:
    always admitted, never shed (rejecting the traffic that could fix
    an overload would wedge the system).
    """

    __slots__ = ("name", "weight", "priority", "deadline", "rate", "burst", "control")

    def __init__(
        self,
        name: str,
        weight: float = 1.0,
        priority: int = 8,
        deadline: Optional[float] = None,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        control: bool = False,
    ) -> None:
        if weight <= 0.0:
            raise ValueError(f"weight must be positive: {weight}")
        self.name = name
        self.weight = weight
        self.priority = priority
        self.deadline = deadline
        self.rate = rate
        self.burst = burst if burst is not None else 4.0
        self.control = control

    def as_dict(self) -> Dict[str, Any]:
        return {
            "weight": self.weight,
            "priority": self.priority,
            "deadline": self.deadline,
            "rate": self.rate,
            "burst": self.burst,
            "control": self.control,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QoSClass({self.name!r}, w={self.weight}, prio={self.priority})"


class Grant:
    """An admitted request's committed schedule."""

    __slots__ = ("cls_name", "start", "completion", "wait", "reply_contexts")

    def __init__(
        self,
        cls_name: str,
        start: float,
        completion: float,
        wait: float,
        reply_contexts: Optional[Dict[str, Any]],
    ) -> None:
        self.cls_name = cls_name
        self.start = start
        self.completion = completion
        self.wait = wait
        self.reply_contexts = reply_contexts


class _ClassStats:
    __slots__ = (
        "admitted",
        "rejected_queue",
        "rejected_rate",
        "shed_deadline",
        "wait_total",
        "wait_max",
    )

    def __init__(self) -> None:
        self.admitted = 0
        self.rejected_queue = 0
        self.rejected_rate = 0
        self.shed_deadline = 0
        self.wait_total = 0.0
        self.wait_max = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "admitted": self.admitted,
            "rejected_queue": self.rejected_queue,
            "rejected_rate": self.rejected_rate,
            "shed_deadline": self.shed_deadline,
            "wait_mean": self.wait_total / self.admitted if self.admitted else 0.0,
            "wait_max": self.wait_max,
        }


class RequestScheduler:
    """Per-ORB admission controller and scheduler core."""

    def __init__(
        self,
        orb: Any,
        policy: str = "wfq",
        max_depth: int = 64,
        backpressure_depth: Optional[int] = None,
        capacity_rps: Optional[float] = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be at least 1: {max_depth}")
        self.orb = orb
        self.host = orb.host
        self.max_depth = max_depth
        #: Depth at which replies start carrying retry-after hints;
        #: defaults to three quarters of the hard limit.
        self.backpressure_depth = (
            backpressure_depth
            if backpressure_depth is not None
            else max(1, (max_depth * 3) // 4)
        )
        #: Optional cap on the total request rate the negotiation plane
        #: may promise (see :meth:`admissible_rate`).
        self.capacity_rps = capacity_rps
        self._classes: Dict[str, QoSClass] = {}
        self._ledgers: Dict[str, WorkLedger] = {}
        #: Shared FIFO ledger (also total committed work for stats).
        self.total = WorkLedger()
        self._buckets: Dict[str, tuple] = {}
        self._characteristic_classes: Dict[str, str] = {}
        self._control_keys: set = set()
        self._inflight: List[float] = []
        self.depth_peak = 0
        self._stats: Dict[str, _ClassStats] = {}
        self._policy: SchedulerPolicy = create_policy(policy).attach(self)
        self.define_class(DEFAULT_CLASS, weight=1.0, priority=8)
        self.define_class(CONTROL_CLASS, weight=4.0, priority=0, control=True)

    # -- class administration ---------------------------------------------

    def define_class(self, name: str, **parameters: Any) -> QoSClass:
        """Register (or redefine) a scheduling class."""
        cls = QoSClass(name, **parameters)
        self._classes[name] = cls
        self._ledgers.setdefault(name, WorkLedger())
        self._stats.setdefault(name, _ClassStats())
        return cls

    def classes(self) -> Iterable[QoSClass]:
        return self._classes.values()

    def ensure_class(self, name: str, **parameters: Any) -> QoSClass:
        """The named class, defining it with ``parameters`` if absent."""
        cls = self._classes.get(name)
        if cls is None:
            cls = self.define_class(name, **parameters)
        return cls

    def find_class(self, name: str) -> Optional[QoSClass]:
        """The named class, or None (never raises)."""
        return self._classes.get(name)

    def qos_class(self, name: str) -> QoSClass:
        try:
            return self._classes[name]
        except KeyError:
            raise NO_RESOURCES(f"no scheduling class {name!r} defined") from None

    def class_table(self) -> Dict[str, Dict[str, Any]]:
        """JSON-able view of every class (a transport command)."""
        return {name: cls.as_dict() for name, cls in sorted(self._classes.items())}

    def ledger(self, name: str) -> WorkLedger:
        return self._ledgers[name]

    def map_characteristic(self, characteristic: str, class_name: str) -> None:
        """Route requests negotiated under ``characteristic`` to a class."""
        self.qos_class(class_name)
        self._characteristic_classes[characteristic] = class_name

    def mark_control(self, object_key: str) -> None:
        """Serve ``object_key`` (e.g. a negotiation endpoint) as control
        traffic: always admitted, highest priority."""
        self._control_keys.add(object_key)

    def bind_contract(self, class_name: str, granted: Dict[str, float]) -> QoSClass:
        """Tie a class's admitted capacity to a negotiated agreement.

        Recognised granted parameters: ``delay``/``deadline`` seconds
        (queueing-delay bound before shedding), ``rate`` requests per
        second and ``burst`` tokens (admission bucket).  Renegotiation
        calls this again; live buckets of the class are reconfigured in
        place so the new contract applies immediately.
        """
        cls = self.qos_class(class_name)
        deadline = granted.get("delay", granted.get("deadline"))
        if deadline is not None:
            cls.deadline = float(deadline)
        rate = granted.get("rate")
        if rate is not None:
            cls.rate = float(rate)
        burst = granted.get("burst")
        if burst is not None:
            cls.burst = max(1.0, float(burst))
        if cls.rate is not None:
            for owner, bucket in self._buckets.values():
                if owner == class_name:
                    bucket.reconfigure(cls.rate, cls.burst)
        return cls

    def admissible_rate(self, extra_rps: float) -> bool:
        """Can the negotiation plane promise ``extra_rps`` more capacity?

        With no configured ``capacity_rps`` everything is admissible
        (the per-request mechanisms still apply).
        """
        if self.capacity_rps is None:
            return True
        committed = sum(
            cls.rate for cls in self._classes.values() if cls.rate is not None
        )
        return committed + extra_rps <= self.capacity_rps + 1e-9

    # -- policy ------------------------------------------------------------

    @property
    def policy_name(self) -> str:
        return self._policy.name

    def set_policy(self, name: str) -> str:
        """Swap the scheduling policy at runtime.

        Planning state (the per-class ledgers) restarts empty; work
        already committed keeps its schedule through the in-flight heap
        and the host's ``busy_until``.
        """
        try:
            policy = create_policy(name)
        except KeyError as error:
            raise NO_RESOURCES(str(error)) from None
        self._policy = policy.attach(self)
        for ledger in self._ledgers.values():
            ledger.reset()
        self.total.reset()
        return self._policy.name

    # -- classification ----------------------------------------------------

    def classify(self, request: Request) -> QoSClass:
        """Map a request to its scheduling class.

        Control endpoints win, then the explicit class context set at
        binding time, then the negotiated characteristic, then the
        best-effort default.
        """
        if request.target.profile.object_key in self._control_keys:
            return self._classes[CONTROL_CLASS]
        contexts = request.service_contexts
        name = contexts.get(CLASS_CONTEXT)
        if name is not None:
            cls = self._classes.get(name)
            if cls is not None:
                return cls
        characteristic = contexts.get(CHARACTERISTIC_CONTEXT)
        if characteristic is not None:
            name = self._characteristic_classes.get(characteristic)
            if name is not None:
                return self._classes[name]
        return self._classes[DEFAULT_CLASS]

    # -- admission ---------------------------------------------------------

    def queue_depth(self, now: float) -> int:
        """Requests admitted but not yet finished at ``now``."""
        self._drain(now)
        return len(self._inflight)

    def _drain(self, now: float) -> None:
        inflight = self._inflight
        done = bisect_right(inflight, now)
        if done:
            del inflight[:done]

    def _bucket_for(self, cls: QoSClass, request: Request) -> Optional[TokenBucket]:
        if cls.rate is None:
            return None
        key = request.service_contexts.get(BINDING_CONTEXT, cls.name)
        entry = self._buckets.get(key)
        if entry is None:
            entry = (cls.name, TokenBucket(cls.rate, cls.burst))
            self._buckets[key] = entry
        return entry[1]

    def _retry_hint(self, now: float, below: int) -> float:
        """Seconds until the in-flight count falls to ``below``."""
        inflight = self._inflight
        if len(inflight) < below or not inflight:
            return 0.0
        # ``_inflight`` is kept sorted, so the k-th completion is a
        # direct index instead of an O(n log n) ``heapq.nsmallest``.
        kth = inflight[len(inflight) - below]
        return max(0.0, kth - now)

    def _reject(
        self, cls: QoSClass, minor: int, message: str, retry_after: float
    ) -> None:
        stats = self._stats[cls.name]
        if minor == OVERLOAD_DEADLINE:
            stats.shed_deadline += 1
            COUNTERS.sched_shed += 1
        else:
            if minor == OVERLOAD_QUEUE:
                stats.rejected_queue += 1
            else:
                stats.rejected_rate += 1
            COUNTERS.sched_rejected += 1
        raise OVERLOAD(message, minor=minor, retry_after=round(retry_after, 9))

    def admit(self, request: Request, now: float, service_time: float) -> Grant:
        """Admit and schedule one request, or raise :class:`OVERLOAD`.

        ``service_time`` is the servant's raw demand; CPU scaling and
        queueing are the scheduler's business.  Returns the committed
        :class:`Grant`; the caller advances simulated time to its
        ``completion``.
        """
        cls = self.classify(request)
        self._drain(now)
        service = service_time / self.host.cpu_factor
        if not cls.control:
            if len(self._inflight) >= self.max_depth:
                self._reject(
                    cls,
                    OVERLOAD_QUEUE,
                    f"queue depth {len(self._inflight)} at limit {self.max_depth}",
                    self._retry_hint(now, self.max_depth),
                )
            bucket = self._bucket_for(cls, request)
            if bucket is not None and not bucket.try_consume(now):
                self._reject(
                    cls,
                    OVERLOAD_RATE,
                    f"class {cls.name!r} exceeded its negotiated rate "
                    f"{cls.rate}/s",
                    bucket.time_until(now),
                )
            if cls.deadline is not None:
                wait = self._policy.projected_wait(cls, now, service)
                if wait > cls.deadline:
                    self._reject(
                        cls,
                        OVERLOAD_DEADLINE,
                        f"projected wait {wait:.6f}s exceeds the negotiated "
                        f"delay bound {cls.deadline:.6f}s",
                        wait - cls.deadline,
                    )
            deadline_at = request.service_contexts.get(DEADLINE_CONTEXT)
            if deadline_at is not None:
                projected = now + self._policy.projected_wait(cls, now, service)
                projected += service
                if projected > float(deadline_at):
                    # The caller's budget is already blown: serving the
                    # request would only burn capacity on a reply no
                    # one is waiting for.
                    self._reject(
                        cls,
                        OVERLOAD_DEADLINE,
                        f"projected completion {projected:.6f}s exceeds the "
                        f"call deadline {float(deadline_at):.6f}s",
                        0.0,
                    )
        start, completion = self._policy.plan(cls, now, service)
        if self._policy.name != "fifo":
            # Keep the shared ledger meaningful for stats/utilisation.
            self.total.commit(now, service)
        insort(self._inflight, completion)
        depth = len(self._inflight)
        if depth > self.depth_peak:
            self.depth_peak = depth
        self.host.commit_completion(completion)
        wait = max(0.0, completion - now - service)
        stats = self._stats[cls.name]
        stats.admitted += 1
        stats.wait_total += wait
        if wait > stats.wait_max:
            stats.wait_max = wait
        COUNTERS.sched_admitted += 1
        reply_contexts = None
        if depth >= self.backpressure_depth:
            reply_contexts = {
                RETRY_AFTER_CONTEXT: round(
                    self._retry_hint(now, self.backpressure_depth), 9
                )
            }
        return Grant(cls.name, start, completion, wait, reply_contexts)

    # -- reporting ---------------------------------------------------------

    def signals(self, now: float) -> Dict[str, float]:
        """Flat, cheap signal vector for the control plane.

        Cumulative counts (``admitted``/``rejected``/``shed``) are
        monotone; the control loop differentiates them into per-tick
        rates (:class:`repro.control.signals.RateTracker`).
        """
        admitted = rejected = shed = 0
        for stats in self._stats.values():
            admitted += stats.admitted
            rejected += stats.rejected_queue + stats.rejected_rate
            shed += stats.shed_deadline
        return {
            "queue_depth": float(self.queue_depth(now)),
            "admitted": float(admitted),
            "rejected": float(rejected),
            "shed": float(shed),
        }

    def stats_snapshot(self) -> Dict[str, Any]:
        """JSON-able per-class and global scheduler statistics."""
        return {
            "policy": self.policy_name,
            "depth_peak": self.depth_peak,
            "work_committed": self.total.committed,
            "classes": {
                name: stats.as_dict() for name, stats in sorted(self._stats.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestScheduler({self.policy_name!r}, "
            f"classes={sorted(self._classes)})"
        )
