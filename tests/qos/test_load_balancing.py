"""Tests for the load-balancing characteristic."""

import pytest

from repro.orb.exceptions import BAD_PARAM, COMM_FAILURE
from repro.qos.load_balancing import (
    AdaptivePolicy,
    LeastUsedPolicy,
    LoadBalancingImpl,
    LoadBalancingMediator,
    RandomPolicy,
    RoundRobinPolicy,
    WorkerPool,
    make_policy,
)
from repro.qos.load_balancing.policies import WorkerStats
from tests.qos.conftest import make_counter_class


class TestPolicies:
    def test_round_robin_cycles(self):
        policy = RoundRobinPolicy()
        stats = [WorkerStats() for _ in range(3)]
        assert [policy.choose(3, stats) for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_random_is_seeded(self):
        first = [RandomPolicy(7).choose(4, []) for _ in range(10)]
        second = [RandomPolicy(7).choose(4, []) for _ in range(10)]
        assert first == second

    def test_least_used(self):
        policy = LeastUsedPolicy()
        stats = [WorkerStats(), WorkerStats(), WorkerStats()]
        stats[0].assigned = 5
        stats[1].assigned = 1
        stats[2].assigned = 3
        assert policy.choose(3, stats) == 1

    def test_adaptive_tries_unknown_workers_first(self):
        policy = AdaptivePolicy()
        stats = [WorkerStats(), WorkerStats()]
        stats[0].assigned = 1
        stats[0].ewma_latency = 0.001
        assert policy.choose(2, stats) == 1

    def test_adaptive_prefers_low_latency(self):
        policy = AdaptivePolicy()
        stats = [WorkerStats(), WorkerStats()]
        for s, latency in zip(stats, (0.5, 0.01)):
            s.assigned = 1
            s.ewma_latency = latency
        assert policy.choose(2, stats) == 1

    def test_make_policy(self):
        assert make_policy("round_robin").name == "round_robin"
        with pytest.raises(ValueError):
            make_policy("fastest-finger")

    def test_ewma_update(self):
        stats = WorkerStats()
        stats.record(1.0)
        stats.record(0.0, alpha=0.5)
        assert stats.ewma_latency == 0.5


@pytest.fixture
def pool(world, gen):
    pool = WorkerPool(world, "workers", make_counter_class(gen, service_time=0.01))
    for host in ("a", "b", "c"):
        pool.add_worker(host)
    return pool


@pytest.fixture
def balanced_stub(world, gen, pool):
    stub = gen.CounterStub(world.orb("client"), pool.worker_iors()[0])
    mediator = LoadBalancingMediator("round_robin")
    mediator.set_workers(pool.worker_iors())
    mediator.install(stub)
    return stub, mediator


class TestMediator:
    def test_round_robin_distribution(self, balanced_stub):
        stub, mediator = balanced_stub
        for _ in range(9):
            stub.increment()
        assert [s.assigned for s in mediator.stats()] == [3, 3, 3]

    def test_passthrough_without_workers(self, world, gen, pool):
        stub = gen.CounterStub(world.orb("client"), pool.worker_iors()[0])
        mediator = LoadBalancingMediator()
        mediator.install(stub)
        assert stub.increment() == 1
        assert mediator.redirections == 0

    def test_failover_quarantines_dead_worker(self, world, balanced_stub):
        stub, mediator = balanced_stub
        world.faults.crash("a")
        for _ in range(4):
            stub.increment()
        assert mediator.failovers >= 1
        assert len(mediator.workers) == 2

    def test_all_workers_dead_raises(self, world, balanced_stub):
        stub, mediator = balanced_stub
        for host in ("a", "b", "c"):
            world.faults.crash(host)
        with pytest.raises(COMM_FAILURE):
            stub.increment()

    def test_reinstate_after_recovery(self, world, balanced_stub):
        stub, mediator = balanced_stub
        world.faults.crash("a")
        stub.increment()
        world.faults.recover("a")
        assert mediator.reinstate_quarantined() == 1
        assert len(mediator.workers) == 3

    def test_adaptive_avoids_slow_worker(self, world, gen):
        pool = WorkerPool(world, "mix", make_counter_class(gen, service_time=0.02))
        for host in ("a", "b"):
            pool.add_worker(host)
        world.network.host("a").cpu_factor = 0.05  # 20x slower
        stub = gen.CounterStub(world.orb("client"), pool.worker_iors()[0])
        mediator = LoadBalancingMediator("adaptive")
        mediator.set_workers(pool.worker_iors())
        mediator.install(stub)
        for _ in range(20):
            stub.increment()
        stats = mediator.stats()
        assert stats[1].assigned > stats[0].assigned * 2

    def test_refresh_workers_from_server(self, world, gen, pool):
        servant = make_counter_class(gen)()
        impl = LoadBalancingImpl()
        pool.populate_impl(impl)
        servant.set_qos_impl(impl)
        servant.activate_qos("LoadBalancing")
        director_ior = world.orb("a").poa.activate_object(servant, "director")
        stub = gen.CounterStub(world.orb("client"), director_ior)
        mediator = LoadBalancingMediator()
        mediator.install(stub)
        workers = mediator.refresh_workers(stub)
        assert len(workers) == 3
        stub.increment()
        assert mediator.redirections == 1


class TestImpl:
    def test_policy_validation(self):
        impl = LoadBalancingImpl()
        impl.set_policy("adaptive")
        assert impl.get_policy() == "adaptive"
        with pytest.raises(BAD_PARAM):
            impl.set_policy("warp")

    def test_worker_registry(self):
        impl = LoadBalancingImpl()
        impl.add_worker("IOR:aa")
        impl.add_worker("IOR:aa")
        impl.add_worker("IOR:bb")
        assert impl.workers() == ["IOR:aa", "IOR:bb"]
        impl.remove_worker("IOR:aa")
        assert impl.workers() == ["IOR:bb"]


class TestWorkerPool:
    def test_duplicate_host_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.add_worker("a")

    def test_remove_worker(self, pool):
        pool.remove_worker("a")
        assert pool.hosts() == ["b", "c"]

    def test_remove_tolerates_only_an_already_deactivated_key(
        self, world, pool, monkeypatch
    ):
        world.orb("a").poa.deactivate_object("workers-a")
        pool.remove_worker("a")
        assert pool.hosts() == ["b", "c"]

        def broken(object_key):
            raise RuntimeError("object map corrupted")

        monkeypatch.setattr(world.orb("b").poa, "deactivate_object", broken)
        with pytest.raises(RuntimeError, match="object map corrupted"):
            pool.remove_worker("b")

    def test_queueing_makes_balancing_matter(self, world, gen, pool):
        # One unbalanced worker vs. three balanced: same 12 calls.
        stub = gen.CounterStub(world.orb("client"), pool.worker_iors()[0])
        start = world.clock.now
        for _ in range(12):
            stub.increment()
        single = world.clock.now - start

        mediator = LoadBalancingMediator("round_robin")
        mediator.set_workers(pool.worker_iors())
        mediator.install(stub)
        start = world.clock.now
        for _ in range(12):
            stub.increment()
        balanced = world.clock.now - start
        # Closed-loop sequential calls don't queue, so times are similar;
        # verify balancing at least did not hurt and spread the load.
        assert balanced <= single * 1.2
        assert max(s.assigned for s in mediator.stats()) == 4
