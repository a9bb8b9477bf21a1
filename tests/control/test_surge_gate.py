"""The control plane's acceptance gate, on the simulated clock.

An open-loop client fleet drives a replica group whose offered load
**triples mid-run** (r0 for the warm phase, then 3·r0).  One serving
host sustains r0 but not 3·r0: without adaptation the queue grows
without bound and client-observed latency leaves the contracted delay
within tens of milliseconds.

- **static** — one replica, no control plane.
- **adaptive** — the same deployment with a :class:`ControlLoop`
  sampling the client-observed p95 over the contracted delay and an
  :class:`AutoscalePolicy` growing the group onto the spare hosts.

Goodput counts replies that completed within the contracted delay, per
simulated second.
"""

from repro.control import AutoscalePolicy, ControlLoop, Hysteresis
from repro.core.monitoring import MetricWindow
from repro.perf.counters import COUNTERS
from repro.workloads.drivers import Arrival, open_loop_fanout

from tests.control.helpers import build_control_world

SPARES = ("b", "c", "d")
#: Per-request service demand: one host sustains 1/SERVICE = 250/s.
SERVICE = 0.004
#: Warm-phase offered rate (0.8x a single host's capacity).
R0 = 200.0
#: The negotiated delay bound the adaptive run must hold p95 within.
CONTRACT_DELAY = 0.05
PHASE1, PHASE2 = 0.5, 2.0


def departures():
    """Deterministic open-loop schedule: r0, then 3*r0 after PHASE1."""
    times = []
    t = 0.0
    while t < PHASE1:
        times.append(round(t, 9))
        t += 1.0 / R0
    t = PHASE1
    while t < PHASE1 + PHASE2:
        times.append(round(t, 9))
        t += 1.0 / (3.0 * R0)
    return times


def run_surge(adaptive):
    """Returns ``(result, goodput, decision_trace)`` (trace None if static)."""
    world, manager, group, _, _ = build_control_world(
        spares=SPARES, service_time=SERVICE
    )
    window = MetricWindow(size=20)
    loop = None
    if adaptive:
        loop = ControlLoop(world, period=0.01).attach()

        def pressure(now):
            # Quiet until the window has substance; a short window
            # keeps the p95 fresh while the surge queue builds.
            if len(window) < 10:
                return None
            return window.p95() / CONTRACT_DELAY

        loop.add_policy(
            AutoscalePolicy(
                group,
                list(SPARES),
                signal=pressure,
                hysteresis=Hysteresis(
                    high=0.3, low=0.1, up_ticks=2, down_ticks=10**6, cooldown=0.03
                ),
                max_replicas=1 + len(SPARES),
            )
        )
        loop.start(until=PHASE1 + PHASE2)

    arrivals = [
        Arrival(t, manager.member_ior("a"), "add", (f"t{index}", 1))
        for index, t in enumerate(departures())
    ]

    def observe(arrival, latency, error):
        if latency is not None:
            window.observe(latency)

    result = open_loop_fanout(
        world.orb("client"),
        arrivals,
        observer=observe,
        kernel=world.kernel,
        router=lambda arrival, depart: group.route_least_loaded(depart),
    )
    if loop is not None:
        loop.stop()
    good = sum(1 for latency in result.latencies if latency <= CONTRACT_DELAY)
    return result, good / result.elapsed, loop.trace if adaptive else None


def test_adaptive_holds_the_contract_where_static_collapses():
    static, static_goodput, _ = run_surge(adaptive=False)
    assert static.p95() > CONTRACT_DELAY  # the surge really does overload

    adaptive, adaptive_goodput, _ = run_surge(adaptive=True)
    assert adaptive.failures == 0
    assert adaptive.p95() <= CONTRACT_DELAY
    assert adaptive_goodput >= 2.0 * static_goodput
    assert COUNTERS.ctl_scale_ups >= 2


def test_identical_surge_replays_an_identical_decision_trace():
    _, _, first = run_surge(adaptive=True)
    _, _, second = run_surge(adaptive=True)
    assert len(first) > 0
    assert first.digest() == second.digest()
