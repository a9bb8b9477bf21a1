#!/usr/bin/env python
"""A load-balanced render farm: policies over heterogeneous workers.

Demonstrates "performance by load-balancing" (Section 6) as a purely
client-side, application-centred QoS mechanism:

- a pool of workers with different CPU speeds;
- an *open-loop* job stream (jobs arrive on a schedule, regardless of
  completions) so server queues actually form;
- the four balancing policies compared against the single-server
  baseline;
- fail-over when a worker crashes mid-run.

Run:  python examples/load_balanced_render_farm.py
"""

import repro.qos as qos
from repro.orb import World
from repro.qos.load_balancing import LoadBalancingMediator, WorkerPool
from repro.qos.load_balancing.policies import policy_names
from repro.workloads import Arrival, open_loop_fanout, uniform_arrivals
from repro.workloads.apps import compute_module, make_compute_servant_class

WORKER_SPEEDS = {"node-1": 1.0, "node-2": 1.0, "node-3": 0.5, "node-4": 2.0}
JOB_RATE = 120.0  # jobs/second offered
DURATION = 1.0
JOB_UNITS = 10  # * 2ms = 20ms of work per job at speed 1.0


def build_world():
    world = World()
    world.lan(["studio"] + list(WORKER_SPEEDS), latency=0.002)
    for name, speed in WORKER_SPEEDS.items():
        world.network.host(name).cpu_factor = speed
    pool = WorkerPool(world, "render", make_compute_servant_class(unit_cost=0.002))
    for name in WORKER_SPEEDS:
        pool.add_worker(name)
    return world, pool


def run_policy(policy):
    """Open-loop run: the policy picks the worker per arriving job and
    learns from each job's observed latency (EWMA feedback)."""
    from repro.orb.request import Request
    from repro.workloads.drivers import ClosedLoopResult

    world, pool = build_world()
    orb = world.orb("studio")
    iiop = orb.qos_transport.iiop_module
    mediator = LoadBalancingMediator(policy, seed=11)
    mediator.set_workers(pool.worker_iors())
    latencies = []
    last_finish = 0.0
    for time in uniform_arrivals(JOB_RATE, DURATION):
        index = mediator.policy.choose(len(mediator.workers), mediator._stats)
        stats = mediator._stats[index]
        stats.assigned += 1
        request = Request(mediator.workers[index], "busy_work", (JOB_UNITS,))
        reply, error, finish, _, _ = iiop.exchange(orb, request, time)
        if error is not None:
            raise error
        reply.value()
        latency = finish - time
        stats.record(latency)
        latencies.append(latency)
        last_finish = max(last_finish, finish)
    world.clock.advance_to(last_finish)
    result = ClosedLoopResult(latencies, 0, last_finish)
    spread = [s.assigned for s in mediator.stats()]
    return result, spread


def run_single_server():
    world, pool = build_world()
    orb = world.orb("studio")
    target = pool.worker_iors()[0]  # everything lands on node-1
    plan = [
        Arrival(time, target, "busy_work", (JOB_UNITS,))
        for time in uniform_arrivals(JOB_RATE, DURATION)
    ]
    return open_loop_fanout(orb, plan)


def main():
    print(f"workers: {WORKER_SPEEDS}  |  offered: {JOB_RATE:.0f} jobs/s, "
          f"{JOB_UNITS * 2}ms work each\n")
    print(f"{'policy':<14} {'mean':>9} {'p95':>9} {'max':>9}   spread")

    baseline = run_single_server()
    print(
        f"{'single-server':<14} {baseline.mean()*1e3:8.1f}m "
        f"{baseline.p95()*1e3:8.1f}m {baseline.max()*1e3:8.1f}m   all on node-1"
    )

    for policy in policy_names():
        result, spread = run_policy(policy)
        print(
            f"{policy:<14} {result.mean()*1e3:8.1f}m "
            f"{result.p95()*1e3:8.1f}m {result.max()*1e3:8.1f}m   {spread}"
        )

    # Fail-over: crash a worker mid-stream, closed-loop this time.
    world, pool = build_world()
    stub = compute_module.ComputeStub(world.orb("studio"), pool.worker_iors()[0])
    mediator = LoadBalancingMediator("round_robin")
    mediator.set_workers(pool.worker_iors())
    mediator.install(stub)
    for job in range(10):
        stub.busy_work(JOB_UNITS)
    world.faults.crash("node-2")
    for job in range(10):
        stub.busy_work(JOB_UNITS)  # fails over transparently
    print(
        f"\nfail-over run: 20/20 jobs done, {mediator.failovers} fail-over(s), "
        f"{len(mediator.workers)} workers left in rotation"
    )


if __name__ == "__main__":
    main()
