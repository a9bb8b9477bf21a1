"""E3 — Figure 3: request dispatch inside the ORB.

Drives the full decision tree with one request of each kind and shows
where each lands:

- plain request (no QoS tag)            → GIOP/IIOP module
- QoS-aware request, no module assigned → GIOP/IIOP module (the
  "initial negotiation" path)
- QoS-aware request, module assigned    → the assigned QoS module
- transport command                     → QoS transport
- module command (module not loaded)    → dynamically loaded module

Also measures the simulated cost of a dynamic-interface command (DII,
over the wire) versus a static-interface call (pseudo object, local) —
the two interface kinds of Section 4.
"""

import pytest

from _tables import print_table
from repro.orb import QOS_TAG, TaggedComponent, World
from repro.orb.dii import ModuleHandle, TransportHandle
from repro.orb.servant import Servant
from repro.orb.stub import Stub


class EchoServant(Servant):
    _repo_id = "IDL:bench/Echo:1.0"

    def echo(self, text):
        return text


class EchoStub(Stub):
    def echo(self, text):
        return self._call("echo", text)


def _deploy():
    world = World()
    world.lan(["client", "server"], latency=0.002)
    server_orb = world.orb("server")
    plain_ior = server_orb.poa.activate_object(EchoServant(), "plain")
    qos_ior = server_orb.poa.activate_object(
        EchoServant(),
        "qos",
        components=[TaggedComponent(QOS_TAG, {"characteristics": ["Compression"]})],
    )
    return world, plain_ior, qos_ior


def _dispatch_table():
    world, plain_ior, qos_ior = _deploy()
    client = world.orb("client")
    server = world.orb("server")
    iiop = client.qos_transport.iiop_module
    rows = []

    def snapshot():
        compression = client.qos_transport.module("compression")
        return (
            iiop.requests_sent,
            compression.requests_sent if compression else 0,
            server.qos_transport.commands_interpreted,
        )

    # 1. Plain request.
    before = snapshot()
    EchoStub(client, plain_ior).echo("x")
    rows.append(("plain request", *_delta(before, snapshot()), "iiop"))

    # 2. QoS-aware request, nothing assigned yet.
    before = snapshot()
    EchoStub(client, qos_ior).echo("x")
    rows.append(("QoS request, unassigned", *_delta(before, snapshot()), "iiop"))

    # 3. QoS-aware request with an assigned module.
    client.qos_transport.assign(qos_ior, "compression")
    before = snapshot()
    EchoStub(client, qos_ior).echo("x")
    rows.append(("QoS request, assigned", *_delta(before, snapshot()), "compression"))

    # 4. Transport command.
    before = snapshot()
    TransportHandle(client, plain_ior).call("loaded_modules")
    rows.append(("transport command", *_delta(before, snapshot()), "transport"))

    # 5. Module command to a module the server has not loaded yet:
    #    reflection loads it on demand.
    assert "bandwidth" not in server.qos_transport.loaded_modules()
    before = snapshot()
    ModuleHandle(client, plain_ior, "bandwidth").call("reservations")
    loaded = "bandwidth" in server.qos_transport.loaded_modules()
    rows.append(
        ("module command (auto-load)", *_delta(before, snapshot()),
         f"bandwidth (loaded={loaded})")
    )
    return rows, world, plain_ior


def _delta(before, after):
    return tuple(b - a for a, b in zip(before, after))


def test_bench_e3_dispatch_tree(benchmark):
    rows, world, plain_ior = benchmark.pedantic(
        _dispatch_table, rounds=1, iterations=1
    )
    print_table(
        "E3 / Figure 3 — ORB dispatch decision tree",
        ["request kind", "iiop+", "module+", "cmds interpreted+", "landed at"],
        rows,
    )
    by_name = {row[0]: row for row in rows}
    assert by_name["plain request"][1] == 1
    assert by_name["QoS request, unassigned"][1] == 1
    assert by_name["QoS request, assigned"][2] == 1
    assert by_name["transport command"][3] == 1
    assert by_name["module command (auto-load)"][3] == 1
    assert "loaded=True" in by_name["module command (auto-load)"][4]


def test_bench_e3_static_vs_dynamic_interface(benchmark):
    def scenario():
        world, plain_ior, _ = _deploy()
        client = world.orb("client")

        # Dynamic interface: a command over the wire (a round trip).
        start = world.clock.now
        ModuleHandle(client, plain_ior, "iiop").call("ping")
        dynamic = world.clock.now - start

        # Static interface: the local pseudo object (no wire traffic).
        start = world.clock.now
        pseudo = client.resolve_initial_references("QoSTransport")
        pseudo.call("loaded_modules")
        return dynamic, world.clock.now - start

    dynamic_cost, static_cost = benchmark.pedantic(scenario, rounds=1, iterations=1)

    print_table(
        "E3 — static (pseudo object) vs dynamic (DII command) interface",
        ["interface kind", "simulated cost (ms)"],
        [
            ("dynamic (DII command over wire)", dynamic_cost * 1e3),
            ("static (local pseudo object)", static_cost * 1e3),
        ],
    )
    assert dynamic_cost > 0.004  # two link traversals
    assert static_cost == 0.0


def test_bench_e3_command_interpretation_speed(benchmark):
    """Wall-clock throughput of the transport's command interpreter."""
    world, plain_ior, _ = _deploy()
    server = world.orb("server")
    from repro.orb.request import Request

    request = Request(
        plain_ior, "loaded_modules", (), kind="command", command_target="transport"
    )
    benchmark(server.qos_transport.handle_command, request)
