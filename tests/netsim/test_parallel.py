"""Tests for the sharded event kernel (conservative synchronization)."""

import sys

import pytest

from repro.netsim.kernel import EventKernel, KernelError
from repro.netsim.parallel import (
    ShardPlanner,
    ShardedKernel,
    TopologySpec,
    handler_ref,
)
from repro.netsim.parallel.plan import LinkSpec
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

    def test_strict_determinism_forces_serial(self):
        kernel = ShardedKernel(small_topology(), shards=4,
                               strict_determinism=True)
        assert kernel.serial

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
        from repro.netsim.parallel.shard import ShardRuntime

        topo = small_topology()
        plan = ShardPlanner(topo).plan(4)
        runtime = ShardRuntime(0, set(plan.members(0)), topo,
                               plan.lookahead)
        foreign = plan.members(1)[0]
        with pytest.raises(KernelError):
            runtime.post(plan.lookahead / 2, foreign,
                         handler_ref(soak.heartbeat), None)

    def test_run_before_is_strict_and_keeps_clock(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule_at(1.0, fired.append, "in-window")
        kernel.schedule_at(2.0, fired.append, "at-boundary")
        assert kernel.run_before(2.0) == 1
        assert fired == ["in-window"]
        # Clock sits at the last fired event, not the window end, so
        # barrier-time injection just after it is legal.
        assert kernel.clock.now == 1.0
        kernel.schedule_at(1.5, fired.append, "injected")
        kernel.run()
        assert fired == ["in-window", "injected", "at-boundary"]


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
