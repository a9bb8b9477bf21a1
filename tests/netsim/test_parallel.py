"""Tests for the sharded event kernel (conservative synchronization)."""

import gc
import sys
import weakref

import pytest

from repro.netsim.kernel import EventKernel, KernelError
from repro.netsim.parallel import (
    ShardPlanner,
    ShardedKernel,
    TopologySpec,
    handler_ref,
)
from repro.netsim.parallel.plan import LinkSpec
from repro.netsim.parallel.shard import ShardContext, ShardRuntime
from repro.perf import snapshot
from repro.workloads import soak
from repro.workloads.soak import (
    SerialScenarioDriver,
    schedule_soak,
    soak_config,
    soak_topology,
    zero_lookahead_topology,
)


def small_topology():
    return soak_topology(clusters=4, hosts_per_cluster=4)


def run_soak(topo, shards, backend="inline", duration=0.2, **cfg_kwargs):
    kernel = ShardedKernel(topo, shards=shards, backend=backend, trace=True)
    schedule_soak(kernel, soak_config(topo, duration=duration, **cfg_kwargs))
    fired = kernel.run()
    return kernel, fired


class TestTopologySpec:
    def test_from_network_round_trip(self):
        from repro.netsim.network import Network

        net = Network()
        for name in ("a", "b", "c"):
            net.add_host(name)
        net.connect("a", "b", latency=0.002)
        net.connect("b", "c", latency=0.003)
        topo = TopologySpec.from_network(net)
        assert topo.hosts == ("a", "b", "c")
        latency, _ = topo.path("a", "c")
        assert latency == pytest.approx(0.005)

    def test_transfer_delay_matches_network_model(self):
        topo = TopologySpec(
            ["a", "b"], [LinkSpec("a", "b", 0.001, 100e6)]
        )
        # latency + nbytes * 8 / bandwidth, same as Network.send on an
        # idle unreserved network.
        assert topo.transfer_delay("a", "b", 1000) == pytest.approx(
            0.001 + 8000 / 100e6
        )
        assert topo.transfer_delay("a", "a", 1000) == 0.0

    def test_unknown_link_host_rejected(self):
        with pytest.raises(ValueError):
            TopologySpec(["a"], [LinkSpec("a", "ghost", 0.001)])

    def test_pickle_round_trip(self):
        import pickle

        topo = small_topology()
        clone = pickle.loads(pickle.dumps(topo))
        assert clone.hosts == topo.hosts
        assert clone.links == topo.links


class TestShardPlanner:
    def test_assignment_is_balanced_and_total(self):
        topo = small_topology()
        plan = ShardPlanner(topo).plan(4)
        assert set(plan.assignment) == set(topo.hosts)
        sizes = [len(plan.members(s)) for s in range(plan.shards)]
        assert sum(sizes) == len(topo.hosts)
        assert max(sizes) - min(sizes) <= 2

    def test_clusters_stay_together(self):
        # The min-cut-ish objective must never split a dense cluster
        # across shards when there are exactly as many shards as
        # clusters: the trunks are the cheap cut.
        topo = small_topology()
        plan = ShardPlanner(topo).plan(4)
        for shard in range(4):
            prefixes = {h[:3] for h in plan.members(shard)}
            assert len(prefixes) == 1

    def test_lookahead_is_min_cut_latency(self):
        topo = soak_topology(
            clusters=2, hosts_per_cluster=3,
            intra_latency=0.0004, inter_latency=0.0065,
        )
        plan = ShardPlanner(topo).plan(2)
        assert plan.lookahead == pytest.approx(0.0065)
        assert plan.cut_links >= 1

    def test_single_shard_plan(self):
        topo = small_topology()
        plan = ShardPlanner(topo).plan(1)
        assert plan.shards == 1
        assert plan.lookahead == float("inf")
        assert plan.cut_links == 0

    def test_more_shards_than_hosts_clamped(self):
        topo = TopologySpec(["a", "b"], [LinkSpec("a", "b", 0.001)])
        plan = ShardPlanner(topo).plan(16)
        assert plan.shards == 2

    def test_plan_is_deterministic(self):
        topo = small_topology()
        first = ShardPlanner(topo).plan(4).assignment
        second = ShardPlanner(small_topology()).plan(4).assignment
        assert first == second


class TestDeterminism:
    def test_identical_digest_at_shard_counts_1_2_4(self):
        topo = small_topology()
        digests = set()
        for shards in (1, 2, 4):
            kernel, fired = run_soak(topo, shards, heartbeats=10)
            assert fired > 0
            digests.add(kernel.trace_digest())
        assert len(digests) == 1

    def test_serial_vs_sharded_scenario_one(self):
        topo = small_topology()
        serial, fired_serial = run_soak(topo, 1)
        sharded, fired_sharded = run_soak(topo, 4)
        assert serial.serial and not sharded.serial
        assert fired_serial == fired_sharded
        assert serial.trace_digest() == sharded.trace_digest()

    def test_serial_vs_sharded_scenario_two(self):
        # A different shape: two big clusters, heavier cross traffic.
        topo = soak_topology(clusters=2, hosts_per_cluster=6,
                             inter_latency=0.008)
        serial, _ = run_soak(topo, 1, duration=0.3, remote_ratio=0.6,
                             fanout=3)
        sharded, _ = run_soak(topo, 2, duration=0.3, remote_ratio=0.6,
                              fanout=3)
        assert not sharded.serial
        assert sharded.stats()["cross_messages"] > 0
        assert serial.trace_digest() == sharded.trace_digest()

    def test_zero_lookahead_falls_back_to_serial(self):
        kernel = ShardedKernel(zero_lookahead_topology(), shards=2,
                               trace=True)
        assert kernel.serial
        assert kernel.plan.lookahead == 0.0
        cfg = soak_config(zero_lookahead_topology(), duration=0.1)
        schedule_soak(kernel, cfg)
        kernel.run()
        assert kernel.stats()["backend"] == "serial"
        assert kernel.stats()["fallback_serial"] is True

    def test_fallback_writes_the_serial_driver_trace_order(self):
        # Not just the digest: the one-shard runtime fires events in
        # exactly the order EventKernel does, so the unsorted traces match.
        topo = small_topology()
        cfg = soak_config(topo, duration=0.2)
        driver = SerialScenarioDriver(EventKernel(), topo, seed=3, trace=True)
        schedule_soak(driver, cfg)
        fired = driver.run()
        kernel = ShardedKernel(topo, shards=1, seed=3, trace=True)
        schedule_soak(kernel, cfg)
        assert kernel.run() == fired
        assert kernel._trace == driver.trace
        stats = kernel.stats()
        assert (stats["backend"], stats["shards"], stats["barriers"]) == (
            "serial", 1, 0
        )

    def test_serial_driver_matches_sharded_kernel(self):
        topo = small_topology()
        cfg = soak_config(topo, duration=0.2)
        driver = SerialScenarioDriver(EventKernel(), topo, trace=True)
        schedule_soak(driver, cfg)
        driver.run()
        sharded, _ = run_soak(topo, 4)
        import hashlib

        digest = hashlib.sha256()
        for entry in sorted(driver.trace):
            time, host, ref, payload = entry
            digest.update(f"{time!r}|{host}|{ref}|{payload}\n".encode())
        assert digest.hexdigest() == sharded.trace_digest()


class TestConservativeSync:
    def test_cross_shard_messages_flow_at_barriers(self):
        topo = small_topology()
        kernel, _ = run_soak(topo, 4, remote_ratio=0.5)
        stats = kernel.stats()
        assert stats["cross_messages"] > 0
        assert stats["barriers"] > 0
        assert stats["lookahead"] == pytest.approx(0.004)
        assert len(stats["events_per_shard"]) == 4

    def test_lookahead_violation_is_rejected(self):
        topo = small_topology()
        plan = ShardPlanner(topo).plan(4)
        runtime = ShardRuntime(0, set(plan.members(0)), topo,
                               plan.lookahead)
        foreign = plan.members(1)[0]
        with pytest.raises(KernelError):
            runtime.post(plan.lookahead / 2, foreign,
                         handler_ref(soak.heartbeat), None)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_run_until_is_strict(self, shards):
        # An event due exactly at ``until`` waits: it could still be
        # affected by a message produced before it.
        topo = small_topology()
        kernel = ShardedKernel(topo, shards=shards, trace=True)
        assert kernel.serial == (shards == 1)
        kernel.schedule_at(1.0, "c00h00", soak.ack)
        kernel.schedule_at(2.0, "c03h00", soak.ack)
        assert kernel.run(until=2.0) == 1
        assert [entry[:2] for entry in kernel.trace_entries()] == [
            (1.0, "c00h00")
        ]

    def test_a_drained_runtime_needs_no_cycle_collector(self):
        # The serial fallback's runtime holds the whole trace; it must
        # go when the run ends, not whenever the collector next runs.
        topo = small_topology()
        runtime = ShardRuntime(0, set(topo.hosts), topo, float("inf"),
                               trace=True)
        cfg = soak_config(topo, duration=0.05)
        for host in topo.hosts:
            runtime.post(0.0, host, handler_ref(soak.boot), cfg)
        runtime.run_window(float("inf"))
        gone = weakref.ref(runtime)
        gc.disable()
        try:
            del runtime
            assert gone() is None
        finally:
            gc.enable()


def _sharded_kernel(topo, host):
    kernel = ShardedKernel(topo, shards=4, trace=True)

    def post(time):
        kernel.schedule_at(time, host, soak.ack)

    def drain():
        kernel.run()
        return kernel._trace

    return post, drain


def _shard_context(topo, host):
    runtime = ShardRuntime(0, set(topo.hosts), topo, float("inf"), trace=True)

    def post(time):
        ShardContext(runtime, host).schedule(time, host, soak.ack)  # now == 0

    def drain():
        runtime.run_window(float("inf"))
        return runtime.trace

    return post, drain


@pytest.mark.parametrize("entry", [_sharded_kernel, _shard_context])
def test_nan_time_is_rejected_and_the_rest_drains_in_order(entry):
    post, drain = entry(small_topology(), "c00h00")
    for time in (3.0, 1.0, 2.0):
        post(time)
    with pytest.raises(KernelError):
        post(float("nan"))
    post(0.5)
    assert [entry[0] for entry in drain()] == [0.5, 1.0, 2.0, 3.0]


class TestHandlerRefs:
    def test_module_level_function_round_trips(self):
        ref = handler_ref(soak.tick)
        assert ref == "repro.workloads.soak:tick"

    def test_lambda_rejected(self):
        with pytest.raises(TypeError):
            handler_ref(lambda ctx, payload: None)

    def test_method_rejected(self):
        with pytest.raises(TypeError):
            handler_ref(TopologySpec.from_network)


class TestProcessBackend:
    @pytest.mark.skipif(
        sys.platform == "win32", reason="POSIX pipes assumed"
    )
    def test_spawned_workers_match_inline_digest(self):
        topo = small_topology()
        inline, fired_inline = run_soak(topo, 2, duration=0.1)
        proc = ShardedKernel(topo, shards=2, backend="process", trace=True)
        schedule_soak(proc, soak_config(topo, duration=0.1))
        fired_proc = proc.run()
        assert fired_proc == fired_inline
        assert proc.trace_digest() == inline.trace_digest()
        assert proc.stats()["backend"] == "process"


class TestShardStatsPanel:
    def test_snapshot_merges_kernel_shard_keys(self):
        topo = small_topology()
        kernel, fired = run_soak(topo, 4)
        panel = snapshot(kernel=kernel)
        assert panel["kernel_shard_events_fired"] == fired
        assert panel["kernel_shard_shards"] == 4
        assert panel["kernel_shard_lookahead"] == pytest.approx(0.004)
        assert panel["kernel_shard_barriers"] > 0
        assert panel["kernel_shard_cross_messages"] > 0
        assert len(panel["kernel_shard_events_per_shard"]) == 4


# -- the host-bound context, on both runtimes ----------------------------


def send_a_lambda(ctx, payload):
    ctx.send(ctx.host, lambda ctx, payload: None)


def schedule_a_lambda(ctx, payload):
    ctx.schedule(0.0, ctx.host, lambda ctx, payload: None)


def relay_by_ref(ctx, dst):
    ctx.send(dst, "repro.workloads.soak:ack")


def keep_runtime_ref(ctx, refs):
    refs.append(weakref.ref(ctx._runtime))


def _serial_driver(topo, trace=False):
    return SerialScenarioDriver(EventKernel(), topo, seed=3, trace=trace)


def _one_shard(topo, trace=False):
    return ShardedKernel(topo, shards=1, seed=3, trace=trace)


def _trace_of(runtime):
    if isinstance(runtime, SerialScenarioDriver):
        return sorted(runtime.trace)
    return runtime.trace_entries()


@pytest.mark.parametrize("make", [_serial_driver, _one_shard])
class TestBoundContext:
    def test_lambda_is_rejected_when_scheduled(self, make):
        runtime = make(small_topology())
        with pytest.raises(TypeError):
            runtime.schedule_at(0.0, "c00h00", lambda ctx, payload: None)

    @pytest.mark.parametrize("handler", [send_a_lambda, schedule_a_lambda])
    def test_lambda_is_rejected_from_a_handler(self, make, handler):
        runtime = make(small_topology())
        runtime.schedule_at(0.0, "c00h00", handler)
        with pytest.raises(TypeError):
            runtime.run()

    def test_ref_string_handlers_fire(self, make):
        topo = small_topology()
        runtime = make(topo, trace=True)
        runtime.schedule_at(
            0.5, "c00h00", "tests.netsim.test_parallel:relay_by_ref", "c00h01"
        )
        assert runtime.run() == 2
        arrival = 0.5 + topo.transfer_delay("c00h00", "c00h01")
        assert [entry[:3] for entry in _trace_of(runtime)] == [
            (0.5, "c00h00", "tests.netsim.test_parallel:relay_by_ref"),
            (arrival, "c00h01", "repro.workloads.soak:ack"),
        ]

    def test_finished_runtime_needs_no_cycle_collector(self, make):
        refs = []
        runtime = make(small_topology())
        runtime.schedule_at(0.0, "c00h00", keep_runtime_ref, refs)
        gc.disable()
        try:
            runtime.run()
            del runtime
            assert refs and all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestSerialDriver:
    def test_host_state_matches_the_one_shard_runtime(self):
        topo = small_topology()
        cfg = soak_config(topo, duration=0.2)
        driver = SerialScenarioDriver(EventKernel(), topo, seed=3)
        schedule_soak(driver, cfg)
        driver.run()
        runtime = ShardRuntime(0, set(topo.hosts), topo, float("inf"), seed=3)
        for host in topo.hosts:
            runtime.post(0.0, host, soak.boot, cfg)
        runtime.run_window(float("inf"))
        assert sum(driver.host_state(h)["acks"] for h in topo.hosts) > 0
        for host in topo.hosts:
            assert driver.host_state(host) == runtime.host_state(host)

    def test_tracing_changes_neither_event_count_nor_heap_peak(self):
        topo = small_topology()
        cfg = soak_config(topo, duration=0.2, heartbeats=5)
        seen = []
        for trace in (False, True):
            driver = SerialScenarioDriver(EventKernel(), topo, trace=trace)
            schedule_soak(driver, cfg)
            driver.run()
            seen.append((driver.kernel.events_fired, driver.kernel.live_peak))
        assert seen[0] == seen[1]

    def test_send_prices_like_transfer_delay(self):
        topo = small_topology()
        runtime = ShardRuntime(0, set(topo.hosts), topo, float("inf"))
        ctx = ShardContext(runtime, "c00h00")
        for dst in topo.hosts:
            for nbytes in (0, 1500):
                assert ctx.send(dst, soak.ack, None, nbytes) == (
                    topo.transfer_delay("c00h00", dst, nbytes)
                )
