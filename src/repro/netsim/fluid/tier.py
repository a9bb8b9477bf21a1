"""The fluid execution tier and its packet-mode reference twin.

Both executors run flowlets over the *same* kernel, clock, network and
link-sharing model; they differ only in granularity:

- :class:`FluidFlowExecutor` schedules **one completion event per
  flowlet**.  The transfer time is computed analytically at start:
  per-link processor-sharing rate (``Link.fluid_share``), capped by the
  MSMO97 response curve for the path's RTT and loss, an expected
  ``1/(1-p)`` retransmission factor, plus the CSA00 slow-start excess.
  While active, the flow's average rate is registered as ``fluid_bps``
  demand on every link of its path, which is exactly what packet-tier
  best-effort messages subtract in ``Link.effective_bandwidth`` — the
  coupling that makes hybrid experiments honest.

- :class:`PacketFlowletExecutor` schedules **one event per MSS
  segment**: each segment pays per-link latency plus serialisation at
  the same shared rate, with per-segment sampled loss and
  retransmission.  It is the ground truth the calibration suite holds
  the fluid tier to, and costs O(bytes/MSS) events per flowlet.

Determinism: both executors fold every start and completion into a
running SHA-256 trace digest; identical seeds must give identical
digests, including in hybrid runs with packet-tier foreground traffic.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List

from repro.netsim.fluid.flowlet import Flowlet
from repro.netsim.fluid.models import (
    DEFAULT_MSS,
    DEFAULT_RWND,
    msmo97_throughput,
    startup_excess,
)
from repro.netsim.kernel import EventKernel
from repro.netsim.network import Link, Network
from repro.perf import COUNTERS

#: RTT floor so loopback-ish paths never degenerate the TCP models.
MIN_RTT = 1e-4


class ClassStats:
    """Per-class delay/goodput accumulator shared by both executors."""

    __slots__ = ("started", "completed", "bytes", "total_delay",
                 "first_start", "last_finish")

    def __init__(self) -> None:
        self.started = 0
        self.completed = 0
        self.bytes = 0
        self.total_delay = 0.0
        self.first_start = float("inf")
        self.last_finish = 0.0

    def mean_delay(self) -> float:
        return self.total_delay / self.completed if self.completed else 0.0

    def goodput_bps(self) -> float:
        """Delivered bits over the class's active window."""
        window = self.last_finish - self.first_start
        return self.bytes * 8.0 / window if window > 0.0 else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "started": float(self.started),
            "completed": float(self.completed),
            "bytes": float(self.bytes),
            "mean_delay": self.mean_delay(),
            "goodput_bps": self.goodput_bps(),
        }


class _ExecutorBase:
    """Stats, trace digest and link registration common to both tiers."""

    def __init__(self, network: Network, kernel: EventKernel,
                 mss: int = DEFAULT_MSS, rwnd: int = DEFAULT_RWND) -> None:
        self.network = network
        self.kernel = kernel
        self.mss = mss
        self.rwnd = rwnd
        self.active = 0
        self.active_peak = 0
        self.flowlets_started = 0
        self.flowlets_completed = 0
        self.bytes_completed = 0
        self.classes: Dict[str, ClassStats] = {}
        self._digest = hashlib.sha256()

    # -- bookkeeping --------------------------------------------------

    def _class(self, name: str) -> ClassStats:
        stats = self.classes.get(name)
        if stats is None:
            stats = self.classes[name] = ClassStats()
        return stats

    def _note_start(self, flowlet: Flowlet) -> None:
        now = self.kernel.clock.now
        self.flowlets_started += 1
        self.active += 1
        if self.active > self.active_peak:
            self.active_peak = self.active
            COUNTERS.note_fluid_active(self.active)
        stats = self._class(flowlet.klass)
        stats.started += 1
        if now < stats.first_start:
            stats.first_start = now
        self._digest.update(
            f"S,{now:.9f},{flowlet.klass},{flowlet.nbytes};".encode()
        )
        COUNTERS.fluid_flowlets += 1
        COUNTERS.fluid_flowlet_bytes += flowlet.nbytes

    def _note_completion(self, flowlet: Flowlet, started_at: float) -> None:
        now = self.kernel.clock.now
        self.flowlets_completed += 1
        self.active -= 1
        self.bytes_completed += flowlet.nbytes
        stats = self._class(flowlet.klass)
        stats.completed += 1
        stats.bytes += flowlet.nbytes
        stats.total_delay += now - started_at
        if now > stats.last_finish:
            stats.last_finish = now
        self._digest.update(
            f"C,{now:.9f},{flowlet.klass},{flowlet.nbytes};".encode()
        )
        COUNTERS.fluid_completions += 1

    def trace_digest(self) -> str:
        """Hex digest of every start/completion seen so far, in order."""
        return self._digest.hexdigest()

    def class_summaries(self) -> Dict[str, Dict[str, float]]:
        return {name: stats.summary() for name, stats in self.classes.items()}

    def _path(self, flowlet: Flowlet):
        links, latency, loss = self.network.path_metrics(flowlet.src, flowlet.dst)
        rtt = max(2.0 * latency, MIN_RTT)
        return links, latency, loss, rtt


class FluidFlowExecutor(_ExecutorBase):
    """Analytic tier: one event per flowlet (alias :class:`FluidTier`)."""

    def start(self, flowlet: Flowlet) -> float:
        """Begin a flowlet now; returns its computed completion time."""
        links, latency, loss, rtt = self._path(flowlet)
        for link in links:
            link.fluid_flows += 1

        model_cap = msmo97_throughput(self.mss, rtt, loss, self.rwnd)
        packets = max(1, -(-flowlet.nbytes // self.mss))
        # Expected transmissions per segment under per-segment loss:
        # every retransmission repeats the full per-link trip.
        expect = 1.0 / (1.0 - loss) if 0.0 < loss < 1.0 else 1.0
        nbits = flowlet.nbytes * 8.0
        duration = 0.0
        for link in links:
            rate = min(link.fluid_share(), model_cap)
            duration += expect * (packets * link.latency + nbits / rate)
        if not links:  # loopback: serialisation-free
            duration = MIN_RTT
        duration += startup_excess(
            flowlet.nbytes, self.mss, rtt, loss, self.rwnd
        )

        # Register the flow's life-averaged demand so packet-tier
        # messages crossing these links see the background load.
        demand = flowlet.nbytes * 8.0 / duration
        for link in links:
            link.fluid_bps += demand

        now = self.kernel.clock.now
        self._note_start(flowlet)
        self.kernel.schedule(
            duration, self._complete, flowlet, now, demand, links
        )
        return now + duration

    def _complete(self, flowlet: Flowlet, started_at: float,
                  demand: float, links: List[Link]) -> None:
        for link in links:
            link.fluid_bps = max(0.0, link.fluid_bps - demand)
            link.fluid_flows -= 1
            link.fluid_bytes += flowlet.nbytes
        self._note_completion(flowlet, started_at)


#: The name the rest of the system uses for the analytic tier.
FluidTier = FluidFlowExecutor


class PacketFlowletExecutor(_ExecutorBase):
    """Reference tier: one event per MSS segment, sampled loss.

    The calibration ground truth.  Each active flowlet registers in
    ``Link.fluid_flows`` exactly like a fluid flow, so concurrent
    flowlets contend through the same processor-sharing model; the
    startup excess and MSMO97 rate cap are applied identically.  Loss
    is *sampled* per segment (seeded per start ordinal), so expectations
    in the fluid tier are checked against realised randomness here.
    """

    def __init__(self, network: Network, kernel: EventKernel,
                 mss: int = DEFAULT_MSS, rwnd: int = DEFAULT_RWND,
                 seed: int = 0) -> None:
        super().__init__(network, kernel, mss, rwnd)
        self._seed = seed

    def start(self, flowlet: Flowlet) -> None:
        """Begin a flowlet now: segments go out one event at a time."""
        links, latency, loss, rtt = self._path(flowlet)
        for link in links:
            link.fluid_flows += 1
        self._note_start(flowlet)
        # Seed from the executor-local start ordinal, not the global
        # flowlet id: re-running the same schedule in a fresh process
        # (or after other tests minted flowlets) must replay the same
        # loss samples.
        state = {
            "flowlet": flowlet,
            "links": links,
            "loss": loss,
            "rtt": rtt,
            "remaining": max(1, -(-flowlet.nbytes // self.mss)),
            "started_at": self.kernel.clock.now,
            "rng": random.Random(self._seed ^ (self.flowlets_started * 0x9E3779B1)),
        }
        ramp = startup_excess(flowlet.nbytes, self.mss, rtt, loss, self.rwnd)
        self.kernel.schedule(ramp, self._send_segment, state)

    def _send_segment(self, state: dict) -> None:
        flowlet: Flowlet = state["flowlet"]
        links: List[Link] = state["links"]
        loss: float = state["loss"]
        model_cap = msmo97_throughput(self.mss, state["rtt"], loss, self.rwnd)
        nbits = min(self.mss, flowlet.nbytes) * 8.0
        trip = 0.0
        for link in links:
            rate = min(link.fluid_share(), model_cap)
            trip += link.latency + nbits / rate
        if not links:
            trip = MIN_RTT
        # Sampled geometric retransmissions: every lost copy repeats the
        # full trip (capped so a pathological seed cannot stall a run).
        rng = state["rng"]
        transmissions = 1
        while (
            0.0 < loss < 1.0
            and transmissions < 8
            and rng.random() < loss
        ):
            transmissions += 1
        delay = trip * transmissions
        state["remaining"] -= 1
        if state["remaining"] > 0:
            self.kernel.schedule(delay, self._send_segment, state)
        else:
            self.kernel.schedule(delay, self._finish, state)

    def _finish(self, state: dict) -> None:
        flowlet: Flowlet = state["flowlet"]
        for link in state["links"]:
            link.fluid_flows -= 1
            link.fluid_bytes += flowlet.nbytes
        self._note_completion(flowlet, state["started_at"])
