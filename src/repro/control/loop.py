"""The control loop: sample → decide → actuate, on the event kernel.

One :class:`ControlLoop` per deployment.  It rides
:meth:`~repro.netsim.kernel.EventKernel.every`, so its ticks interleave
deterministically with application traffic, fault schedules and the
fluid tier; everything it reads is simulated state and everything it
does advances the simulated clock — identical seeds produce identical
decision traces, which the benchmark gates on.

Policies are plain objects with ``tick(now, loop)``; the loop provides
them a shared :class:`~repro.control.trace.DecisionTrace` and the
:meth:`actuate` wrapper that times each actuation (simulated seconds
from decision to completion — DII round trips, state transfer, the
lot) into the global ``ctl_*`` counter panel.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.control.trace import DecisionTrace
from repro.perf.counters import COUNTERS


class ControlLoop:
    """Periodic controller driving a set of adaptation policies."""

    def __init__(self, world: Any, period: float = 0.05) -> None:
        if period <= 0.0:
            raise ValueError(f"period must be positive: {period}")
        self.world = world
        self.kernel = world.kernel
        self.period = period
        self.trace = DecisionTrace()
        self.policies: List[Any] = []
        self.ticks = 0
        self.decisions = 0
        self.running = False

    # -- wiring -----------------------------------------------------------

    def attach(self) -> "ControlLoop":
        """Register as the deployment's control plane.

        Makes the loop visible to :func:`repro.perf.counters.snapshot`
        (the ``ctl_*`` panel) and to the ``ctl_stats``/``ctl_trace``
        transport commands on every ORB of the world.
        """
        self.world.control = self
        return self

    def add_policy(self, policy: Any) -> Any:
        """Register a policy; shares the loop's trace when it has none."""
        group = getattr(policy, "group", None)
        if group is not None:
            group.trace = self.trace
        self.policies.append(policy)
        return policy

    # -- execution --------------------------------------------------------

    def start(self, until: Optional[float] = None) -> "ControlLoop":
        """Begin ticking every ``period`` seconds of simulated time.

        The recurrence is self-chaining (not ``kernel.every``) so that
        :meth:`stop` — or reaching ``until`` — genuinely ends it and a
        full ``kernel.run()`` can drain to completion.
        """
        if self.running:
            return self
        self.running = True
        self._schedule_next(until)
        return self

    def stop(self) -> None:
        """Stop the recurrence; the next pending tick fires as a no-op."""
        self.running = False

    def _schedule_next(self, until: Optional[float]) -> None:
        next_time = self.world.clock.now + self.period
        if until is not None and next_time > until:
            self.running = False
            return
        self.kernel.schedule(self.period, self._fire, until)

    def _fire(self, until: Optional[float]) -> None:
        if not self.running:
            return
        now = self.world.clock.now
        self.ticks += 1
        COUNTERS.ctl_samples += 1
        for policy in self.policies:
            policy.tick(now, self)
        self._schedule_next(until)

    def tick_once(self) -> None:
        """Run one tick immediately (tests and manual stepping)."""
        self.ticks += 1
        COUNTERS.ctl_samples += 1
        now = self.world.clock.now
        for policy in self.policies:
            policy.tick(now, self)

    # -- actuation accounting ---------------------------------------------

    def actuate(self, kind: str, fn: Any, **detail: Any) -> Any:
        """Run one actuation; time it, count it, record it.

        The latency is simulated seconds between the decision and the
        actuation completing — state transfers and renegotiation round
        trips advance the clock, so this is the true control-plane
        actuation delay, not wall time.
        """
        clock = self.world.clock
        started = clock.now
        result = fn()
        elapsed = clock.now - started
        self.decisions += 1
        COUNTERS.ctl_decisions += 1
        COUNTERS.note_actuation(elapsed)
        self.trace.record(started, kind, latency=round(elapsed, 9), **detail)
        return result

    # -- reporting --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The ``ctl_*`` instrument panel of this loop."""
        kinds: Dict[str, int] = {}
        for kind in self.trace.kinds():
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "ticks": self.ticks,
            "period": self.period,
            "policies": len(self.policies),
            "decisions": self.decisions,
            "trace_records": len(self.trace),
            "trace_kinds": dict(sorted(kinds.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return (
            f"ControlLoop(period={self.period}, policies={len(self.policies)}, "
            f"{state})"
        )
