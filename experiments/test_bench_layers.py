"""E1 — Figure 1: layers of potential QoS integration.

Reproduces the paper's two integration layers for the same
characteristic (compression): application-centred (mediator + QoS
implementation around stub/skeleton) versus network-centred (QoS
module inside the ORB), plus both at once and the no-QoS baseline.

Reported per variant: simulated round-trip time and bytes on the wire
for a compressible 4 KiB payload over a 256 kbit/s link.

Expected shape: both integration layers beat the baseline on the slow
link; the network-centred module also compresses protocol overhead, so
its wire bytes are the smallest; stacking both layers pays double CPU
for almost no extra byte savings.
"""

import pytest

from _tables import print_table
from repro.core.binding import QoSProvider, establish_qos
from repro.core.negotiation import Range
from repro.orb import World
from repro.qos.compression.payload import CompressionImpl, CompressionMediator
from repro.workloads import compressible_text
from repro.workloads.apps import archive_module, make_archive_servant_class

PAYLOAD = compressible_text(4096, seed=7)


def _deploy():
    world = World()
    world.add_host("client")
    world.add_host("server")
    world.connect("client", "server", latency=0.01, bandwidth_bps=256e3)
    servant = make_archive_servant_class()()
    provider = QoSProvider(world, "server", servant)
    provider.support(
        "Compression",
        CompressionImpl(),
        capabilities={"threshold": Range(64, 64)},
    )
    ior = provider.activate("archive")
    stub = archive_module.ArchiveStub(world.orb("client"), ior)
    return world, ior, stub


def _measure(world, stub, calls=5):
    start_time = world.clock.now
    start_bytes = world.network.bytes_sent
    for index in range(calls):
        stub.store(f"doc-{index}", PAYLOAD)
    return (
        (world.clock.now - start_time) / calls,
        (world.network.bytes_sent - start_bytes) / calls,
    )


def _run_all_variants():
    rows = []

    world, ior, stub = _deploy()
    rtt, wire = _measure(world, stub)
    rows.append(("none (baseline)", rtt * 1e3, wire))
    baseline_rtt, baseline_wire = rtt, wire

    world, ior, stub = _deploy()
    establish_qos(
        stub, "Compression", {"threshold": Range(64, 64)},
        mediator=CompressionMediator(),
    )
    rtt, wire = _measure(world, stub)
    rows.append(("application-centred", rtt * 1e3, wire))
    app_rtt = rtt

    world, ior, stub = _deploy()
    world.orb("client").qos_transport.assign(ior, "compression")
    rtt, wire = _measure(world, stub)
    rows.append(("network-centred", rtt * 1e3, wire))
    net_rtt, net_wire = rtt, wire

    world, ior, stub = _deploy()
    establish_qos(
        stub, "Compression", {"threshold": Range(64, 64)},
        mediator=CompressionMediator(),
    )
    world.orb("client").qos_transport.assign(ior, "compression")
    rtt, wire = _measure(world, stub)
    rows.append(("both layers", rtt * 1e3, wire))

    return rows, baseline_rtt, app_rtt, net_rtt, net_wire, baseline_wire


def test_bench_e1_integration_layers(benchmark):
    (rows, baseline_rtt, app_rtt, net_rtt, net_wire, baseline_wire) = (
        benchmark.pedantic(_run_all_variants, rounds=1, iterations=1)
    )
    print_table(
        "E1 / Figure 1 — QoS integration layers (4 KiB payload, 256 kbit/s)",
        ["integration layer", "rtt (sim ms)", "wire bytes/call"],
        rows,
    )
    # Shape: both single layers clearly beat the baseline on a slow link
    # (the LZ codec halves this word-based payload).
    assert app_rtt < baseline_rtt * 0.75
    assert net_rtt < baseline_rtt * 0.75
    # The network-centred module compresses protocol overhead too.
    assert net_wire < baseline_wire * 0.7
