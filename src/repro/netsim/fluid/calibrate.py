"""Calibration: hold the fluid tier to the packet tier's numbers.

A calibration scenario is a topology plus a seeded flowlet schedule.
The harness replays the *same* schedule through both executors —
:class:`~repro.netsim.fluid.tier.PacketFlowletExecutor` (per-segment
events, sampled loss: the ground truth) and
:class:`~repro.netsim.fluid.tier.FluidFlowExecutor` (one analytic event
per flowlet) — and compares per-class mean delay and goodput.  The
tier-1 suite (``tests/netsim/test_fluid_calibration.py``) asserts
every error stays within :data:`DEFAULT_TOLERANCE`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.netsim.fluid.flowlet import FlowletClass, FlowletGenerator
from repro.netsim.fluid.tier import (
    FluidFlowExecutor,
    PacketFlowletExecutor,
    _ExecutorBase,
)
from repro.netsim.kernel import EventKernel
from repro.netsim.network import Network
from repro.netsim.resources import ResourceManager

#: Maximum tolerated relative error on per-class mean delay and goodput.
DEFAULT_TOLERANCE = 0.15

#: Calibration traffic mix: mice and (bounded) elephants.  The bulk
#: ceiling is kept modest so the packet-mode ground truth stays cheap.
CALIBRATION_CLASSES: Tuple[FlowletClass, ...] = (
    FlowletClass("interactive", share=3.0, min_bytes=8_192),
    FlowletClass("bulk", share=1.0, min_bytes=30_000, max_bytes=300_000,
                 alpha=1.3),
)


class Scenario:
    """One shared calibration workload."""

    def __init__(
        self,
        name: str,
        build: Callable[[Network, ResourceManager], None],
        src: str,
        dst: str,
        rate: float,
        duration: float,
        seed: int = 0,
        classes: Sequence[FlowletClass] = CALIBRATION_CLASSES,
    ) -> None:
        self.name = name
        self.build = build
        self.src = src
        self.dst = dst
        self.rate = rate
        self.duration = duration
        self.seed = seed
        self.classes = tuple(classes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scenario({self.name!r}, {self.rate}/s x {self.duration}s)"


def _lan_bottleneck(network: Network, resources: ResourceManager) -> None:
    network.add_host("client")
    network.add_host("server")
    network.connect("client", "server", latency=0.002, bandwidth_bps=20e6)


def _wan_lossy(network: Network, resources: ResourceManager) -> None:
    network.add_host("edge")
    network.add_host("core")
    network.connect("edge", "core", latency=0.020, bandwidth_bps=10e6,
                    loss_rate=0.02)


def _reserved_contention(network: Network, resources: ResourceManager) -> None:
    network.add_host("client")
    network.add_host("server")
    network.connect("client", "server", latency=0.005, bandwidth_bps=10e6)
    # A packet-tier binding holds half the link; fluid aggregates must
    # see the reservation (they split only the unreserved remainder).
    resources.reserve("client", "server", 5e6)


def _multi_hop(network: Network, resources: ResourceManager) -> None:
    network.add_host("client")
    network.add_host("router")
    network.add_host("server")
    network.connect("client", "router", latency=0.003, bandwidth_bps=50e6)
    network.connect("router", "server", latency=0.008, bandwidth_bps=15e6)


def default_scenarios() -> List[Scenario]:
    """The shared scenarios the acceptance criteria name (>= 3)."""
    return [
        Scenario("lan_bottleneck", _lan_bottleneck, "client", "server",
                 rate=12.0, duration=8.0, seed=11),
        Scenario("wan_lossy", _wan_lossy, "edge", "core",
                 rate=6.0, duration=8.0, seed=23),
        Scenario("reserved_contention", _reserved_contention,
                 "client", "server", rate=8.0, duration=8.0, seed=37),
        Scenario("multi_hop", _multi_hop, "client", "server",
                 rate=10.0, duration=8.0, seed=53),
    ]


def run_tier(
    scenario: Scenario, packet_mode: bool
) -> Tuple[Dict[str, Dict[str, float]], _ExecutorBase]:
    """Replay one scenario on one tier; returns per-class summaries."""
    kernel = EventKernel()
    network = Network(kernel.clock)
    resources = ResourceManager(network)
    scenario.build(network, resources)
    if packet_mode:
        executor: _ExecutorBase = PacketFlowletExecutor(
            network, kernel, seed=scenario.seed
        )
    else:
        executor = FluidFlowExecutor(network, kernel)
    generator = FlowletGenerator(scenario.seed, scenario.classes)
    schedule = generator.poisson(
        scenario.src, scenario.dst, scenario.rate, scenario.duration
    )
    for time, flowlet in schedule:
        kernel.schedule_at(time, executor.start, flowlet,
                           label="flowlet-arrival")
    kernel.run()
    return executor.class_summaries(), executor


def _relative_error(observed: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0 if observed == 0.0 else float("inf")
    return abs(observed - reference) / reference


def compare_tiers(scenario: Scenario) -> Dict[str, object]:
    """Both tiers on one scenario, with per-class relative errors."""
    packet, packet_executor = run_tier(scenario, packet_mode=True)
    fluid, fluid_executor = run_tier(scenario, packet_mode=False)
    classes: Dict[str, Dict[str, float]] = {}
    worst = 0.0
    for name in sorted(set(packet) | set(fluid)):
        p = packet.get(name, {})
        f = fluid.get(name, {})
        delay_err = _relative_error(
            f.get("mean_delay", 0.0), p.get("mean_delay", 0.0)
        )
        goodput_err = _relative_error(
            f.get("goodput_bps", 0.0), p.get("goodput_bps", 0.0)
        )
        worst = max(worst, delay_err, goodput_err)
        classes[name] = {
            "packet_mean_delay": p.get("mean_delay", 0.0),
            "fluid_mean_delay": f.get("mean_delay", 0.0),
            "delay_error": delay_err,
            "packet_goodput_bps": p.get("goodput_bps", 0.0),
            "fluid_goodput_bps": f.get("goodput_bps", 0.0),
            "goodput_error": goodput_err,
            "flowlets": p.get("completed", 0.0),
        }
    return {
        "scenario": scenario.name,
        "classes": classes,
        "max_error": worst,
        "packet_events": packet_executor.kernel.events_fired,
        "fluid_events": fluid_executor.kernel.events_fired,
        "event_ratio": (
            packet_executor.kernel.events_fired
            / max(1, fluid_executor.kernel.events_fired)
        ),
    }


def calibrate(
    scenarios: Optional[Sequence[Scenario]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[str, object]:
    """Run the whole calibration suite; ``ok`` iff every error fits."""
    results = [compare_tiers(s) for s in (scenarios or default_scenarios())]
    worst = max((r["max_error"] for r in results), default=0.0)
    return {
        "tolerance": tolerance,
        "scenarios": results,
        "max_error": worst,
        "ok": worst <= tolerance,
    }
