"""Property-based tests for the network substrate invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.clock import Clock
from repro.netsim.kernel import EventKernel
from repro.netsim.network import Network
from repro.netsim.resources import InsufficientBandwidth, ResourceManager


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50))
def test_clock_is_monotonic(deltas):
    clock = Clock()
    previous = clock.now
    for delta in deltas:
        clock.advance(delta)
        assert clock.now >= previous
        previous = clock.now


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_kernel_fires_in_nondecreasing_time_order(delays):
    kernel = EventKernel()
    fired = []
    for delay in delays:
        kernel.schedule(delay, lambda: fired.append(kernel.clock.now))
    kernel.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# Offsets on a quarter-second grid: sums stay exact, and ties are common.
_offsets = st.integers(min_value=0, max_value=12).map(lambda q: q / 4)
_kernel_steps = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.lists(_offsets, min_size=1, max_size=1)),
        st.tuples(st.just("schedule_at"), st.lists(_offsets, min_size=1, max_size=1)),
        st.tuples(st.just("schedule_many"), st.lists(_offsets, max_size=6)),
        st.tuples(st.just("run_until"), st.lists(_offsets, min_size=1, max_size=1)),
    ),
    max_size=25,
)


@given(_kernel_steps)
def test_kernel_fires_in_time_then_scheduling_order(steps):
    """Any mix of the three scheduling verbs, drained through arbitrary
    ``run_until`` split points and then ``run()``, fires in
    (time, scheduling order)."""
    kernel = EventKernel()
    fired = []
    queued = []  # (time, scheduling order, step) per event

    def record(step):
        fired.append((kernel.clock.now, step))

    for step, (verb, offsets) in enumerate(steps):
        now = kernel.clock.now
        if verb == "run_until":
            kernel.run_until(now + offsets[0])
            continue
        if verb == "schedule":
            kernel.schedule(offsets[0], record, step)
        elif verb == "schedule_at":
            kernel.schedule_at(now + offsets[0], record, step)
        else:
            kernel.schedule_many([now + o for o in offsets], record, step)
        first = len(queued)
        queued.extend((now + o, first + i, step) for i, o in enumerate(offsets))
    kernel.run()
    assert fired == [(time, step) for time, _, step in sorted(queued)]


def _ring_network(n):
    net = Network()
    names = [f"h{i}" for i in range(n)]
    for name in names:
        net.add_host(name)
    for i in range(n):
        net.connect(names[i], names[(i + 1) % n], latency=0.001 * (i + 1))
    return net, names


@given(st.integers(min_value=3, max_value=12), st.data())
@settings(max_examples=30)
def test_routes_are_connected_paths(n, data):
    net, names = _ring_network(n)
    src = data.draw(st.sampled_from(names))
    dst = data.draw(st.sampled_from(names))
    path = net.route(src, dst)
    if src == dst:
        assert path == []
        return
    # The path must be a chain of adjacent links from src to dst.
    position = src
    for link in path:
        ends = set(link.endpoints())
        assert position in ends
        position = (ends - {position}).pop()
    assert position == dst


@given(
    st.integers(min_value=3, max_value=10),
    st.data(),
)
@settings(max_examples=30)
def test_route_latency_never_beaten_by_direct_link(n, data):
    net, names = _ring_network(n)
    src = data.draw(st.sampled_from(names))
    dst = data.draw(st.sampled_from(names))
    path = net.route(src, dst)
    total = sum(link.latency for link in path)
    # Dijkstra optimality spot-check: any direct link cannot be cheaper.
    try:
        direct = net.link_between(src, dst)
        assert total <= direct.latency + 1e-12
    except Exception:
        pass


@given(
    st.lists(
        st.floats(min_value=1e3, max_value=5e6, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
def test_reservations_never_exceed_ceiling(rates):
    net = Network()
    net.add_host("a")
    net.add_host("b")
    link = net.connect("a", "b", bandwidth_bps=10e6)
    manager = ResourceManager(net)
    granted = []
    for rate in rates:
        try:
            granted.append(manager.reserve("a", "b", rate))
        except InsufficientBandwidth:
            pass
    ceiling = link.capacity_bps * ResourceManager.MAX_RESERVABLE_FRACTION
    assert link.reserved_bps <= ceiling + 1e-6
    for reservation in granted:
        manager.release(reservation)
    assert abs(link.reserved_bps) < 1e-6


@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=1e3, max_value=1e9, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_transfer_delay_is_nonnegative_and_monotone_in_size(nbytes, bandwidth, latency):
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b", latency=latency, bandwidth_bps=bandwidth)
    small = net.transfer_delay("a", "b", nbytes)
    large = net.transfer_delay("a", "b", nbytes + 1)
    assert small >= latency
    assert large >= small
