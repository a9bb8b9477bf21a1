"""Case study — the whole framework under one mixed deployment.

Not a single paper claim but the paper's *premise*: "larger systems
encounter a variety of different QoS requirements" (Section 1), so one
deployment runs replication, load balancing and compression
concurrently — with naming, trading and fault injection — and reports
the aggregate deployment statistics.

Expected shape: every subsystem keeps working through the fault
schedule (zero failed client calls), and replication multiplies wire
traffic by roughly the group size for its share of the workload.
"""

import pytest

from _tables import print_table
from repro.core.binding import QoSProvider, establish_qos
from repro.core.negotiation import Range
from repro.core.trading import TraderServant, TraderStub
from repro.orb import World
from repro.orb.exceptions import COMM_FAILURE, TRANSIENT
from repro.qos.compression.payload import CompressionImpl, CompressionMediator
from repro.qos.fault_tolerance import ReplicaGroupManager
from repro.qos.load_balancing import LoadBalancingMediator, WorkerPool
from repro.workloads import compressible_text
from repro.workloads.apps import (
    archive_module,
    compute_module,
    make_archive_servant_class,
    make_compute_servant_class,
)

HOSTS = [f"h{i}" for i in range(8)] + ["client", "registry"]
STEPS = 40


def _run_case_study():
    world = World()
    world.lan(HOSTS, latency=0.002, bandwidth_bps=20e6)
    world.start_naming("registry")
    client = world.orb("client")

    trader_ior = world.orb("registry").poa.activate_object(TraderServant(), "T")
    trader = TraderStub(client, trader_ior)

    group = ReplicaGroupManager(
        world, "grp", make_compute_servant_class(unit_cost=0.0005)
    )
    for host in ("h0", "h1", "h2"):
        group.add_replica(host)
    group_stub = group.bind_client(client, compute_module.ComputeStub)

    pool = WorkerPool(world, "pool", make_compute_servant_class(unit_cost=0.0005))
    for host in ("h3", "h4", "h5"):
        pool.add_worker(host)
    lb_stub = compute_module.ComputeStub(client, pool.worker_iors()[0])
    lb_mediator = LoadBalancingMediator("round_robin")
    lb_mediator.set_workers(pool.worker_iors())
    lb_mediator.install(lb_stub)

    archive_servant = make_archive_servant_class()()
    provider = QoSProvider(world, "h6", archive_servant)
    provider.support(
        "Compression", CompressionImpl(), capabilities={"threshold": Range(64, 64)}
    )
    archive_ior = provider.activate("arch")
    trader.export("archive", archive_ior, ["Compression"], {})
    archive_stub = archive_module.ArchiveStub(
        client, trader.query("archive", "Compression")[0]
    )
    compression = CompressionMediator()
    establish_qos(
        archive_stub, "Compression", {"threshold": Range(64, 64)},
        mediator=compression,
    )

    world.faults.crash_schedule([(5.0, 15.0, "h1"), (10.0, 20.0, "h4")])

    payload = compressible_text(2000, seed=9)
    failures = 0
    for step in range(1, STEPS + 1):
        world.kernel.run_until(step * 0.75)
        try:
            group_stub.busy_work(1)
            lb_stub.busy_work(1)
            archive_stub.store(f"doc-{step}", payload)
        except (COMM_FAILURE, TRANSIENT):
            failures += 1
    world.kernel.run()

    stats = world.statistics()
    rows = [
        ("simulated seconds", f"{stats['time']:.1f}"),
        ("hosts / ORBs", f"{stats['hosts']:.0f} / {stats['orbs']:.0f}"),
        ("client calls issued", 3 * STEPS),
        ("failed client calls", failures),
        ("wire messages", f"{stats['messages']:.0f}"),
        ("wire bytes", f"{stats['bytes']:.0f}"),
        ("replica fan-outs", client.qos_transport.module("multicast").fanouts),
        ("LB fail-overs", lb_mediator.failovers),
        ("compression ratio", f"{compression.observed_ratio():.3f}"),
        ("archive documents", archive_servant.size()),
    ]
    return rows, failures, archive_servant, payload, stats


def test_bench_case_study(benchmark):
    rows, failures, archive_servant, payload, stats = benchmark.pedantic(
        _run_case_study, rounds=1, iterations=1
    )
    print_table(
        "Case study — replication + load balancing + compression, "
        "one deployment, two outages",
        ["measure", "value"],
        rows,
    )
    assert failures == 0
    assert archive_servant.size() == STEPS
    assert archive_servant.files[f"doc-{STEPS}"] == payload
    assert stats["requests_received"] >= stats["requests_invoked"]
