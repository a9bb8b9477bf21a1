"""E4 — fault tolerance through replica groups (Section 6).

Availability under a rolling crash/recovery schedule versus the
replica count k.  A client polls the replicated counter throughout a
window in which replicas crash and recover in a staggered pattern that
leaves at most ``k - 1`` replicas down at any instant; with k = 1 the
schedule takes the only server away for part of the run.

Also measured: the fan-out latency cost of replication (first vs all
vs majority), and diversity — a corrupted replica masked by majority
voting.

Expected shape: availability climbs monotonically with k (1.0 from
k >= 2 under this schedule); replication latency grows with the
combination policy's strictness (first < majority < all).
"""

import pytest

from _tables import print_table
from repro.orb import World
from repro.orb.exceptions import COMM_FAILURE, TRANSIENT
from repro.qos.fault_tolerance import ReplicaGroupManager
from repro.workloads import run_closed_loop, uniform_arrivals
from repro.workloads.apps import compute_module, make_compute_servant_class

HOSTS = ["r1", "r2", "r3", "r4", "r5"]
CALLS = 120
WINDOW = 60.0


def _world():
    world = World()
    world.lan(["client"] + HOSTS, latency=0.003)
    return world


def _availability_for_k(k, seed=0):
    world = _world()
    group = ReplicaGroupManager(
        world, "svc", make_compute_servant_class(unit_cost=0.0005)
    )
    for host in HOSTS[:k]:
        group.add_replica(host)
    stub = group.bind_client(world.orb("client"), compute_module.ComputeStub)

    # Staggered outages: replica i is down during (10 + 9i, 28 + 9i).
    # At most two replicas are down at once, so k >= 3 never blacks out.
    for index, host in enumerate(HOSTS[:k]):
        world.faults.crash_schedule([(10.0 + 9.0 * index, 28.0 + 9.0 * index, host)])

    successes = 0
    for arrival in uniform_arrivals(CALLS / WINDOW, WINDOW):
        world.kernel.run_until(arrival)
        try:
            stub.busy_work(1)
            successes += 1
        except (COMM_FAILURE, TRANSIENT):
            pass
    world.kernel.run()
    return successes / CALLS


def _run_availability_sweep():
    return [(k, _availability_for_k(k)) for k in range(1, 6)]


def test_bench_e4_availability_vs_replicas(benchmark):
    rows = benchmark.pedantic(_run_availability_sweep, rounds=1, iterations=1)
    print_table(
        "E4 — availability vs replica count (staggered 18s outages in 60s)",
        ["replicas k", "availability"],
        rows,
    )
    availability = dict(rows)
    # Shape: monotone non-decreasing; k=1 suffers, k>=2 masks everything.
    assert availability[1] < 0.9
    for k in range(2, 6):
        assert availability[k] >= availability[k - 1] - 1e-9
    assert availability[3] == 1.0


def _policy_latencies():
    rows = []
    for policy in ("first", "majority", "all"):
        world = _world()
        group = ReplicaGroupManager(
            world, "svc", make_compute_servant_class(unit_cost=0.002)
        )
        for host in HOSTS[:3]:
            group.add_replica(host)
        # Two slow replicas: 'first' rides the single fast one, while
        # 'majority' must wait for a second (slow) vote.
        world.network.host("r2").cpu_factor = 0.25
        world.network.host("r3").cpu_factor = 0.25
        stub = group.bind_client(
            world.orb("client"), compute_module.ComputeStub, policy=policy
        )
        result = run_closed_loop(world.clock, lambda i: stub.busy_work(5), 20)
        rows.append((policy, result.mean() * 1e3, result.p95() * 1e3))
    return rows


def test_bench_e4_policy_latency(benchmark):
    rows = benchmark.pedantic(_policy_latencies, rounds=1, iterations=1)
    print_table(
        "E4 — combination policy vs latency (3 replicas, two 4x slower)",
        ["policy", "mean rtt (sim ms)", "p95 (sim ms)"],
        rows,
    )
    by_policy = {row[0]: row[1] for row in rows}
    assert by_policy["first"] < by_policy["majority"] <= by_policy["all"]


def _diversity_run():
    world = _world()
    group = ReplicaGroupManager(world, "svc", make_compute_servant_class())
    for host in HOSTS[:3]:
        group.add_replica(host)
    # One replica answers wrongly (a value fault, not a crash).
    group.replica("r2").busy_work = lambda units: -1.0
    first_stub = group.bind_client(
        world.orb("client"), compute_module.ComputeStub, policy="first"
    )
    majority_stub = group.bind_client(
        world.orb("client"), compute_module.ComputeStub, policy="majority"
    )
    wrong_under_first = sum(
        1 for _ in range(30) if first_stub.busy_work(1) != 1.0
    )
    wrong_under_majority = sum(
        1 for _ in range(30) if majority_stub.busy_work(1) != 1.0
    )
    return wrong_under_first, wrong_under_majority


def test_bench_e4_majority_masks_value_faults(benchmark):
    wrong_first, wrong_majority = benchmark.pedantic(
        _diversity_run, rounds=1, iterations=1
    )
    print_table(
        "E4 — diversity: wrong answers with one lying replica (30 calls)",
        ["policy", "wrong answers"],
        [("first", wrong_first), ("majority", wrong_majority)],
    )
    # Shape: 'first' sometimes returns the lie (the liar can be fastest);
    # majority never does.
    assert wrong_majority == 0
