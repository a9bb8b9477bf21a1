"""QoS monitoring: measured values vs. agreed values.

Section 2.1: "It also provides infrastructure services such as for the
negotiation of QoS agreements and for monitoring them."  The monitor
keeps sliding windows of observed metrics per agreement, checks them
against declared expectations, and notifies listeners on violations —
the trigger input for adaptation (E10).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.negotiation import Agreement

#: Comparators usable in expectations.
_COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    "<=": lambda observed, bound: observed <= bound,
    ">=": lambda observed, bound: observed >= bound,
    "<": lambda observed, bound: observed < bound,
    ">": lambda observed, bound: observed > bound,
}


class Expectation:
    """A bound on an observed metric, e.g. latency <= 0.050."""

    __slots__ = ("metric", "comparator", "bound", "aggregate")

    def __init__(
        self, metric: str, comparator: str, bound: float, aggregate: str = "mean"
    ) -> None:
        if comparator not in _COMPARATORS:
            raise ValueError(
                f"unknown comparator {comparator!r}; use one of "
                f"{sorted(_COMPARATORS)}"
            )
        if aggregate not in ("mean", "max", "min", "p95", "last"):
            raise ValueError(f"unknown aggregate {aggregate!r}")
        self.metric = metric
        self.comparator = comparator
        self.bound = bound
        self.aggregate = aggregate

    def holds(self, value: float) -> bool:
        return _COMPARATORS[self.comparator](value, self.bound)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Expectation({self.aggregate}({self.metric}) {self.comparator} {self.bound})"


class Violation:
    """One detected expectation breach."""

    __slots__ = ("time", "expectation", "observed")

    def __init__(self, time: float, expectation: Expectation, observed: float):
        self.time = time
        self.expectation = expectation
        self.observed = observed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Violation(at {self.time:.3f}: "
            f"{self.expectation!r} observed {self.observed:.6f})"
        )


class MetricWindow:
    """Fixed-size sliding window with simple aggregates."""

    def __init__(self, size: int = 50) -> None:
        if size <= 0:
            raise ValueError(f"window size must be positive: {size}")
        self._values: Deque[float] = deque(maxlen=size)
        self.total_observations = 0

    def observe(self, value: float) -> None:
        self._values.append(value)
        self.total_observations += 1

    def __len__(self) -> int:
        return len(self._values)

    def mean(self) -> float:
        if not self._values:
            return math.nan
        return sum(self._values) / len(self._values)

    def max(self) -> float:
        return max(self._values) if self._values else math.nan

    def min(self) -> float:
        return min(self._values) if self._values else math.nan

    def last(self) -> float:
        return self._values[-1] if self._values else math.nan

    def p95(self) -> float:
        if not self._values:
            return math.nan
        ordered = sorted(self._values)
        index = min(len(ordered) - 1, int(math.ceil(0.95 * len(ordered))) - 1)
        return ordered[max(index, 0)]

    def aggregate(self, kind: str) -> float:
        return {
            "mean": self.mean,
            "max": self.max,
            "min": self.min,
            "p95": self.p95,
            "last": self.last,
        }[kind]()


class QoSMonitor:
    """Observes metrics for one agreement and reports violations."""

    def __init__(
        self,
        agreement: Agreement,
        clock: Any,
        window_size: int = 50,
        min_samples: int = 5,
    ) -> None:
        self.agreement = agreement
        self.clock = clock
        self.window_size = window_size
        #: Don't judge before this many samples arrived (warm-up).
        self.min_samples = min_samples
        self._windows: Dict[str, MetricWindow] = {}
        self._expectations: List[Expectation] = []
        self._listeners: List[Callable[[Violation], None]] = []
        self.violations: List[Violation] = []

    def expect(self, expectation: Expectation) -> "QoSMonitor":
        self._expectations.append(expectation)
        return self

    def on_violation(self, listener: Callable[[Violation], None]) -> "QoSMonitor":
        self._listeners.append(listener)
        return self

    def window(self, metric: str) -> MetricWindow:
        if metric not in self._windows:
            self._windows[metric] = MetricWindow(self.window_size)
        return self._windows[metric]

    def observe(self, metric: str, value: float) -> List[Violation]:
        """Record one sample and evaluate the expectations on its metric."""
        self.window(metric).observe(value)
        return self._check(metric)

    def _check(self, metric: str) -> List[Violation]:
        found: List[Violation] = []
        window = self._windows.get(metric)
        if window is None or len(window) < self.min_samples:
            return found
        for expectation in self._expectations:
            if expectation.metric != metric:
                continue
            observed = window.aggregate(expectation.aggregate)
            if not expectation.holds(observed):
                violation = Violation(self.clock.now, expectation, observed)
                found.append(violation)
                self.violations.append(violation)
                for listener in self._listeners:
                    listener(violation)
        return found

    def healthy(self) -> bool:
        """Do all expectations currently hold (with enough samples)?"""
        for expectation in self._expectations:
            window = self._windows.get(expectation.metric)
            if window is None or len(window) < self.min_samples:
                continue
            if not expectation.holds(window.aggregate(expectation.aggregate)):
                return False
        return True

    def report(self) -> Dict[str, Dict[str, float]]:
        """Aggregate snapshot per metric."""
        return {
            metric: {
                "mean": window.mean(),
                "min": window.min(),
                "max": window.max(),
                "p95": window.p95(),
                "samples": float(window.total_observations),
            }
            for metric, window in self._windows.items()
        }


class MeasuringMediator:
    """Wrap any mediator (or none) with round-trip latency measurement.

    Installs like a mediator; feeds ``latency`` samples into a monitor
    on every call.  Stacking mediators this way is the MAQS answer to
    combining concerns without touching application code.
    """

    characteristic = "__measuring__"

    def __init__(self, monitor: QoSMonitor, inner: Optional[Any] = None) -> None:
        self.monitor = monitor
        self.inner = inner
        self.calls_intercepted = 0

    def invoke(self, stub: Any, operation: str, args: Tuple[Any, ...]) -> Any:
        self.calls_intercepted += 1
        now = stub._orb.time_source.now
        started = now()
        try:
            if self.inner is not None:
                return self.inner.invoke(stub, operation, args)
            return stub._invoke(operation, args)
        finally:
            self.monitor.observe("latency", now() - started)

    def install(self, stub: Any) -> "MeasuringMediator":
        stub._set_mediator(self)
        return self
