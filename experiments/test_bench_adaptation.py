"""E10 — QoS adaptation: renegotiation under varying resources.

A client polls stories over a link whose capacity collapses mid-run
(2 Mbit/s → 96 kbit/s → 2 Mbit/s, a 30-second trough in a 90-second
window).  Two strategies are compared:

- **static**: keep the initial "gold" agreement and suffer;
- **adaptive**: a monitor + adaptation manager renegotiate the
  agreement down a three-level ladder during the trough and back up
  after recovery.

Reported: the fraction of checks in violation and the level track.
Expected shape: the adaptive run degrades within a few checks of the
trough, spends the trough at a sustainable level, upgrades after
recovery, and ends with a far lower violation fraction than static.
"""

import pytest

from _tables import print_table
from repro.core.adaptation import AdaptationLevel, AdaptationManager
from repro.core.binding import QoSProvider, establish_qos
from repro.core.monitoring import Expectation, QoSMonitor
from repro.core.negotiation import Range
from repro.orb import World
from repro.qos.actuality.freshness import ActualityImpl, ActualityMediator
from repro.workloads import compressible_text
from repro.workloads.apps import archive_module, make_archive_servant_class

LEVELS = [
    AdaptationLevel("gold", {"max_age": Range(0.0, 0.5)}),
    AdaptationLevel("silver", {"max_age": Range(0.5, 3.0)}),
    AdaptationLevel("bronze", {"max_age": Range(3.0, 15.0)}),
]
LATENCY_BOUND = 0.120
STORY = compressible_text(6000, seed=2)
TROUGH = (20.0, 50.0)
END = 90.0
CHECK_EVERY = 5.0


def _deploy():
    world = World()
    world.add_host("reader")
    world.add_host("srv")
    link = world.connect("reader", "srv", latency=0.01, bandwidth_bps=2e6)
    servant = make_archive_servant_class()()
    for index in range(3):
        servant.files[f"story-{index}"] = STORY
    provider = QoSProvider(world, "srv", servant)
    provider.support(
        "Actuality",
        ActualityImpl().attach_clock(world.clock),
        capabilities={"max_age": Range(0.0, 15.0)},
    )
    ior = provider.activate("feed")
    stub = archive_module.ArchiveStub(world.orb("reader"), ior)
    world.resources.set_capacity_trace(
        link, [(0.0, 2e6), (TROUGH[0], 96e3), (TROUGH[1], 2e6)]
    )
    return world, stub


def _run(adaptive):
    world, stub = _deploy()
    mediator = ActualityMediator(cacheable={"fetch"})
    binding = establish_qos(
        stub, "Actuality", LEVELS[0].requirements, mediator=mediator
    )
    monitor = QoSMonitor(binding.agreement, world.clock, min_samples=3)
    monitor.expect(Expectation("latency", "<=", LATENCY_BOUND, aggregate="mean"))
    manager = AdaptationManager(
        binding, monitor, LEVELS, upgrade_after_healthy_checks=2
    )

    violating_checks = 0
    total_checks = 0
    tick = CHECK_EVERY
    while tick <= END:
        world.kernel.run_until(tick)
        world.resources.apply_traces()
        for story in range(3):
            start = world.clock.now
            stub.fetch(f"story-{story}")
            monitor.observe("latency", world.clock.now - start)
        total_checks += 1
        if not monitor.healthy():
            violating_checks += 1
        if adaptive:
            manager.check()
        tick += CHECK_EVERY

    return {
        "violation_fraction": violating_checks / total_checks,
        "renegotiations": manager.renegotiations,
        "final_level": manager.current_level.name,
        "track": [(round(t, 1), LEVELS[i].name, why) for t, i, why in manager.track],
        "cache_hits": mediator.hits,
    }


def _compare():
    return _run(adaptive=False), _run(adaptive=True)


def test_bench_e10_adaptation(benchmark):
    static, adaptive = benchmark.pedantic(_compare, rounds=1, iterations=1)
    print_table(
        "E10 — static agreement vs adaptation (30s bandwidth trough)",
        ["strategy", "checks violated", "renegotiations", "final level",
         "cache hits"],
        [
            ("static gold", f"{static['violation_fraction']:.0%}", 0, "gold",
             static["cache_hits"]),
            ("adaptive", f"{adaptive['violation_fraction']:.0%}",
             adaptive["renegotiations"], adaptive["final_level"],
             adaptive["cache_hits"]),
        ],
    )
    print("adaptive level track:", adaptive["track"])
    # Shape: adaptation degrades during the trough and recovers.
    assert adaptive["renegotiations"] >= 2
    assert any(why == "degrade" for _, _, why in adaptive["track"])
    assert any(why == "upgrade" for _, _, why in adaptive["track"])
    assert adaptive["final_level"] == "gold"
    # And it violates its expectations far less often than static.
    assert adaptive["violation_fraction"] < static["violation_fraction"] / 1.5
    # Degrading to a long max_age converts fetches into cache hits.
    assert adaptive["cache_hits"] > static["cache_hits"]
