"""E5 — performance by load balancing (Section 6).

An open-loop Poisson job stream (arrivals independent of completions,
so FIFO queues build at busy servers) is spread over worker pools of
growing size, and across the four balancing policies on a
heterogeneous pool.

Expected shape: with offered load ~1.6x one server's capacity, the
single server's queue grows without bound (mean latency hundreds of
ms); two servers absorb the load; further servers shave the residual
queueing.  On the heterogeneous pool the latency-aware adaptive policy
beats the oblivious ones.
"""

import pytest

from _tables import print_table
from repro.orb import World
from repro.orb.request import Request
from repro.qos.load_balancing import LoadBalancingMediator
from repro.qos.load_balancing.policies import make_policy, policy_names, WorkerStats
from repro.workloads import Arrival, open_loop_fanout, poisson_arrivals
from repro.workloads.apps import compute_module, make_compute_servant_class

HOSTS = ["w1", "w2", "w3", "w4"]
RATE = 80.0      # jobs/second offered
DURATION = 1.5
UNITS = 10       # 20 ms of work per job at speed 1.0 -> capacity 50/s


def _deploy(worker_count, speeds=None):
    world = World()
    world.lan(["client"] + HOSTS[:worker_count], latency=0.002)
    if speeds:
        for host, speed in zip(HOSTS, speeds):
            world.network.host(host).cpu_factor = speed
    iors = []
    servant_class = make_compute_servant_class(unit_cost=0.002)
    for host in HOSTS[:worker_count]:
        iors.append(world.orb(host).poa.activate_object(servant_class(), f"w-{host}"))
    return world, iors


def _run_balanced(world, iors, policy_name, seed=3):
    """Open-loop run with per-job policy choice and latency feedback."""
    orb = world.orb("client")
    iiop = orb.qos_transport.iiop_module
    policy = make_policy(policy_name, seed=seed)
    stats = [WorkerStats() for _ in iors]
    latencies = []
    last_finish = 0.0
    for time in poisson_arrivals(RATE, DURATION, seed=seed):
        index = policy.choose(len(iors), stats)
        stats[index].assigned += 1
        request = Request(iors[index], "busy_work", (UNITS,))
        reply, error, finish, _, _ = iiop.exchange(orb, request, time)
        if error is not None:
            raise error
        reply.value()
        latency = finish - time
        stats[index].record(latency)
        latencies.append(latency)
        last_finish = max(last_finish, finish)
    world.clock.advance_to(last_finish)
    mean = sum(latencies) / len(latencies)
    p95 = sorted(latencies)[int(0.95 * len(latencies)) - 1]
    return mean, p95, [s.assigned for s in stats]


def _pool_size_sweep():
    rows = []
    means = {}
    for count in (1, 2, 3, 4):
        world, iors = _deploy(count)
        mean, p95, spread = _run_balanced(world, iors, "round_robin")
        rows.append((count, mean * 1e3, p95 * 1e3, spread))
        means[count] = mean
    return rows, means


def test_bench_e5_latency_vs_pool_size(benchmark):
    rows, means = benchmark.pedantic(_pool_size_sweep, rounds=1, iterations=1)
    print_table(
        "E5 — open-loop Poisson 80 jobs/s, 20ms jobs: latency vs pool size",
        ["workers", "mean (sim ms)", "p95 (sim ms)", "spread"],
        rows,
    )
    # Shape: one server saturates (offered 1.6x capacity); two absorb it.
    assert means[1] > 5 * means[2]
    assert means[2] >= means[3] * 0.8  # diminishing returns, no regression
    assert means[4] <= means[2]


def _policy_sweep():
    rows = []
    means = {}
    for policy_name in policy_names():
        world, iors = _deploy(4, speeds=[1.0, 1.0, 0.4, 2.0])
        mean, p95, spread = _run_balanced(world, iors, policy_name)
        rows.append((policy_name, mean * 1e3, p95 * 1e3, spread))
        means[policy_name] = mean
    return rows, means


def test_bench_e5_policy_on_heterogeneous_pool(benchmark):
    rows, means = benchmark.pedantic(_policy_sweep, rounds=1, iterations=1)
    print_table(
        "E5 — policies on a heterogeneous pool (speeds 1.0/1.0/0.4/2.0)",
        ["policy", "mean (sim ms)", "p95 (sim ms)", "spread"],
        rows,
    )
    # Shape: latency feedback beats oblivious spreading.
    assert means["adaptive"] < means["round_robin"]
    assert means["adaptive"] < means["random"]


def _failover_run():
    world, iors = _deploy(3)
    stub = compute_module.ComputeStub(world.orb("client"), iors[0])
    mediator = LoadBalancingMediator("round_robin")
    mediator.set_workers(iors)
    mediator.install(stub)
    completed = 0
    for job in range(30):
        if job == 10:
            world.faults.crash("w2")
        stub.busy_work(1)
        completed += 1
    return completed, mediator.failovers, len(mediator.workers)


def test_bench_e5_failover_continuity(benchmark):
    completed, failovers, remaining = benchmark.pedantic(
        _failover_run, rounds=1, iterations=1
    )
    print_table(
        "E5 — fail-over continuity (crash 1 of 3 workers mid-run)",
        ["jobs completed", "fail-overs", "workers left"],
        [(completed, failovers, remaining)],
    )
    assert completed == 30
    assert failovers >= 1
    assert remaining == 2
