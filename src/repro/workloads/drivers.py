"""Closed- and open-loop measurement drivers.

Two execution styles:

- **Closed loop** (:func:`run_closed_loop`): one logical client issuing
  sequential calls through the real stub/mediator path; the next call
  departs when the previous one finished.
- **Open loop** (:func:`open_loop_fanout`): requests depart at
  externally fixed arrival instants regardless of completions, so
  several are in flight at once and FIFO queues form at the servers.
  Synchronous stubs cannot express overlap, so the fan-out invoker
  drives the plain GIOP module's
  :meth:`~repro.orb.modules.base.QoSModule.exchange` with explicit
  departure times — the same time-explicit call the multicast module
  makes for parallel group delivery.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.netsim.kernel import EventKernel
from repro.orb.ior import IOR
from repro.orb.request import Request


class ClosedLoopResult:
    """Latency series from a sequential (closed-loop) run."""

    def __init__(self, latencies: List[float], failures: int, elapsed: float):
        self.latencies = latencies
        self.failures = failures
        self.elapsed = elapsed

    @property
    def count(self) -> int:
        return len(self.latencies)

    def mean(self) -> float:
        if not self.latencies:
            return float("nan")
        return sum(self.latencies) / len(self.latencies)

    def percentile(self, quantile: float) -> float:
        """The ``quantile`` (0..1] latency, nearest-rank convention."""
        if not self.latencies:
            return float("nan")
        ordered = sorted(self.latencies)
        index = max(0, min(len(ordered) - 1, int(quantile * len(ordered)) - 1))
        return ordered[index]

    def p50(self) -> float:
        return self.percentile(0.50)

    def p95(self) -> float:
        return self.percentile(0.95)

    def p99(self) -> float:
        return self.percentile(0.99)

    def max(self) -> float:
        return max(self.latencies) if self.latencies else float("nan")

    def throughput(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.count / self.elapsed

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "failures": float(self.failures),
            "mean": self.mean(),
            "p50": self.p50(),
            "p95": self.p95(),
            "p99": self.p99(),
            "max": self.max(),
            "throughput": self.throughput(),
        }


def run_closed_loop(
    clock: Any,
    call: Callable[[int], Any],
    count: int,
    swallow: tuple = (),
) -> ClosedLoopResult:
    """Issue ``count`` sequential calls; measure simulated latency each.

    ``call`` receives the call index.  Exceptions in ``swallow`` are
    counted as failures instead of propagating.
    """
    latencies: List[float] = []
    failures = 0
    started = clock.now
    for index in range(count):
        call_start = clock.now
        try:
            call(index)
            latencies.append(clock.now - call_start)
        except swallow:
            failures += 1
    return ClosedLoopResult(latencies, failures, clock.now - started)


class OpenLoopDriver:
    """Issue calls at externally fixed arrival instants via the kernel.

    Each arrival fires independently of previous completions — queueing
    at the servers shows up as latency, which is what the
    load-balancing experiment measures.
    """

    def __init__(self, kernel: EventKernel, call: Callable[[int], Any],
                 swallow: tuple = ()) -> None:
        self.kernel = kernel
        self.call = call
        self.swallow = swallow
        self.latencies: List[float] = []
        self.failures = 0
        self._index = 0

    def schedule(self, arrivals: Sequence[float]) -> "OpenLoopDriver":
        # Bulk merge: one heapify for a cold kernel instead of N pushes.
        self.kernel.schedule_many(arrivals, self._fire)
        return self

    def _fire(self) -> None:
        index = self._index
        self._index += 1
        started = self.kernel.clock.now
        try:
            self.call(index)
            self.latencies.append(self.kernel.clock.now - started)
        except self.swallow:
            self.failures += 1

    def run(self) -> ClosedLoopResult:
        """Drain the kernel and summarise."""
        started = self.kernel.clock.now
        self.kernel.run()
        return ClosedLoopResult(
            self.latencies, self.failures, self.kernel.clock.now - started
        )


class Arrival:
    """One open-loop request: when it departs and what it invokes.

    ``contexts`` travel as the request's service contexts (e.g. the
    scheduling class/binding tags); ``label`` is an opaque caller tag
    handed back through the ``observer`` of :func:`open_loop_fanout`
    for per-class bookkeeping.
    """

    __slots__ = ("time", "target", "operation", "args", "contexts", "label")

    def __init__(
        self,
        time: float,
        target: IOR,
        operation: str,
        args: Tuple[Any, ...] = (),
        contexts: Optional[Dict[str, Any]] = None,
        label: Optional[str] = None,
    ) -> None:
        self.time = time
        self.target = target
        self.operation = operation
        self.args = tuple(args)
        self.contexts = dict(contexts or {})
        self.label = label


def open_loop_fanout(
    orb: Any,
    arrivals: Sequence[Arrival],
    observer: Optional[Callable[[Arrival, Optional[float], Optional[Exception]], None]] = None,
    kernel: Optional[EventKernel] = None,
    router: Optional[Callable[[Arrival, float], IOR]] = None,
) -> ClosedLoopResult:
    """Issue every arrival at its own departure instant, in parallel.

    Requests overlap in simulated time: server FIFO queues build up
    whenever the offered load exceeds a host's service rate.  The
    global clock is advanced once, to the last completion.

    ``observer`` is called per arrival as ``observer(arrival, latency,
    exception)`` — latency is None exactly when the request failed —
    letting callers keep per-label series (the scheduler benchmark
    splits gold/bronze this way).

    ``kernel`` makes the fan-out **hybrid**: before each departure the
    kernel is drained up to that instant, so background machinery
    riding the event queue — fluid-tier flowlet starts/completions,
    fault schedules, capacity traces — interleaves with the foreground
    requests in simulated-time order and each request sees the link
    state (fluid demand, reservations) current at its departure.

    ``router`` resolves each arrival's target *at its departure
    instant* — ``router(arrival, depart)`` returns the IOR to invoke.
    This is how the control plane re-routes an open-loop fleet
    mid-run: membership published between two departures (autoscale,
    migration, drain) takes effect on the very next request, without
    rebuilding the arrival schedule.
    """
    if not arrivals:
        return ClosedLoopResult([], 0, 0.0)
    ordered = sorted(arrivals, key=lambda a: a.time)
    iiop = orb.qos_transport.iiop_module
    clock = orb.clock
    base = clock.now
    latencies: List[float] = []
    failures = 0
    last_finish = base
    for arrival in ordered:
        depart = base + arrival.time
        if kernel is not None:
            kernel.run_until(depart)
        target = router(arrival, depart) if router is not None else arrival.target
        request = Request(
            target,
            arrival.operation,
            arrival.args,
            service_contexts=arrival.contexts,
        )
        reply, error, finish, _, _ = iiop.exchange(orb, request, depart)
        if error is None:
            backpressure = getattr(orb, "backpressure", None)
            if backpressure is not None:
                backpressure.observe_reply(
                    target.profile.host, reply.service_contexts, finish
                )
            error = reply.exception
            last_finish = max(last_finish, finish)
        if error is not None:
            failures += 1
            if observer is not None:
                observer(arrival, None, error)
        else:
            latency = finish - depart
            latencies.append(latency)
            if observer is not None:
                observer(arrival, latency, None)
    clock.advance_to(last_finish)
    return ClosedLoopResult(latencies, failures, last_finish - base)
