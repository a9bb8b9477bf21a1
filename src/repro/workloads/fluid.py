"""FluidCohort: N clients' background load as one fluid arrival process.

The separation-of-concerns move of the hybrid tier applied to
workloads: the objects *under study* keep their exact per-message
drivers (:mod:`repro.workloads.drivers`), while the surrounding
population — the "heavy traffic from millions of users" — is a
:class:`FluidCohort` that stands in for ``n_clients`` open-loop clients
without costing an event per message, or even an event per client.

Aggregation: the cohort's offered load is ``n_clients *
flowlets_per_client`` flowlets/second.  To bound kernel traffic, every
scheduled arrival represents ``batch`` clients' simultaneous bursts
merged into one fluid flow of ``batch × size`` bytes; ``batch`` is
chosen so at most ``max_flowlets`` events are scheduled regardless of
population.  Everything is seeded and the flowlet sizes are drawn at
fire time in deterministic kernel order, so identical seeds give
identical traces.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, Optional, Sequence

from repro.netsim.fluid.flowlet import (
    DEFAULT_CLASSES,
    Flowlet,
    FlowletClass,
    FlowletGenerator,
)
from repro.netsim.fluid.tier import FluidFlowExecutor
from repro.workloads.generators import poisson_arrivals


class FluidCohort:
    """A population of background clients modelled as fluid flowlets."""

    def __init__(
        self,
        tier: FluidFlowExecutor,
        src: str,
        dst: str,
        n_clients: int,
        flowlets_per_client: float = 0.05,
        classes: Sequence[FlowletClass] = DEFAULT_CLASSES,
        seed: int = 0,
        max_flowlets: int = 100_000,
    ) -> None:
        if n_clients <= 0:
            raise ValueError(f"n_clients must be positive: {n_clients}")
        if flowlets_per_client <= 0.0:
            raise ValueError(
                f"flowlets_per_client must be positive: {flowlets_per_client}"
            )
        if max_flowlets <= 0:
            raise ValueError(f"max_flowlets must be positive: {max_flowlets}")
        self.tier = tier
        self.src = src
        self.dst = dst
        self.n_clients = n_clients
        self.flowlets_per_client = flowlets_per_client
        self.seed = seed
        self.max_flowlets = max_flowlets
        self._generator = FlowletGenerator(seed, classes)
        self.batch = 1
        self.scheduled = 0
        self.installed_duration = 0.0

    # -- scheduling ---------------------------------------------------

    def plan(self, duration: float) -> Dict[str, float]:
        """Aggregation plan for a run of ``duration`` seconds."""
        offered = self.n_clients * self.flowlets_per_client * duration
        batch = max(1, ceil(offered / self.max_flowlets))
        return {
            "offered_flowlets": offered,
            "batch": float(batch),
            "scheduled_arrivals": offered / batch,
            "aggregate_rate": (
                self.n_clients * self.flowlets_per_client / batch
            ),
        }

    def install(
        self,
        duration: float,
        start: float = 0.0,
        arrivals: Optional[Sequence[float]] = None,
    ) -> int:
        """Schedule the cohort's arrivals; returns events scheduled.

        Uses the kernel's bulk ``schedule_many`` fast path — for a cold
        kernel this is a single O(n) heapify, not n pushes.

        ``arrivals`` overrides the homogeneous-Poisson default with an
        externally shaped arrival process (a diurnal curve, a flash
        crowd) expressed relative to ``start``; each instant still fires
        one ``batch``-sized flowlet, so the aggregation plan is
        unchanged — only the pacing is.
        """
        plan = self.plan(duration)
        self.batch = int(plan["batch"])
        rate = plan["aggregate_rate"]
        base = self.tier.kernel.clock.now + start
        if arrivals is None:
            times = poisson_arrivals(rate, duration, seed=self.seed, start=base)
        else:
            times = [base + offset for offset in arrivals]
            if any(offset < 0.0 or offset > duration for offset in arrivals):
                raise ValueError(
                    "explicit cohort arrivals must lie in [0, duration]"
                )
        self.tier.kernel.schedule_many(times, self._fire)
        self.scheduled += len(times)
        self.installed_duration = duration
        return len(times)

    def _fire(self) -> None:
        flowlet = self._generator.sample(self.src, self.dst, clients=self.batch)
        self.tier.start(flowlet)

    # -- reporting ----------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return {
            "n_clients": float(self.n_clients),
            "batch": float(self.batch),
            "scheduled_arrivals": float(self.scheduled),
            "flowlets_started": float(self.tier.flowlets_started),
            "flowlets_completed": float(self.tier.flowlets_completed),
            "bytes_completed": float(self.tier.bytes_completed),
            "active_peak": float(self.tier.active_peak),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FluidCohort({self.n_clients} clients {self.src}->{self.dst}, "
            f"batch={self.batch})"
        )
