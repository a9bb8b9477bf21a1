"""E11 — reflection: runtime extension of the ORB (Section 4).

"A simple reflection mechanism allows the extension of the ORB at
runtime."  Measured:

- hot-loading a module mid-session: commands to an unloaded module
  load it on first use; the session's existing traffic is undisturbed;
- first-use versus warm command cost to a dynamically loaded module;
- wall-clock cost of reflective instantiation from the registry.

Expected shape: loading is transparent (no failed calls); the first
command pays no extra *simulated* cost (loading is a local registry
lookup); the reflective path is microseconds of wall time.
"""

import pytest

from _tables import print_table
from repro.orb import World
from repro.orb.dii import ModuleHandle, TransportHandle
from repro.orb.modules import available_modules, create_module
from repro.orb.servant import Servant
from repro.orb.stub import Stub


class PingServant(Servant):
    _repo_id = "IDL:bench/Ping:1.0"

    def ping(self):
        return "pong"


class PingStub(Stub):
    def ping(self):
        return self._call("ping")


def _deploy():
    world = World()
    world.lan(["client", "server"], latency=0.002)
    ior = world.orb("server").poa.activate_object(PingServant(), "ping")
    return world, ior, PingStub(world.orb("client"), ior)


def _hot_load_session():
    world, ior, stub = _deploy()
    server = world.orb("server")
    rows = []

    # Live traffic before, during and after a hot load.
    assert stub.ping() == "pong"
    loaded_before = list(server.qos_transport.loaded_modules())

    start = world.clock.now
    ModuleHandle(world.orb("client"), ior, "crypto").call("active_keys")
    first_use = world.clock.now - start

    start = world.clock.now
    ModuleHandle(world.orb("client"), ior, "crypto").call("active_keys")
    warm_use = world.clock.now - start

    assert stub.ping() == "pong"
    loaded_after = list(server.qos_transport.loaded_modules())

    rows.append(("modules before", ", ".join(loaded_before)))
    rows.append(("modules after", ", ".join(loaded_after)))
    rows.append(("first command (sim ms)", f"{first_use * 1e3:.3f}"))
    rows.append(("warm command (sim ms)", f"{warm_use * 1e3:.3f}"))
    return rows, loaded_before, loaded_after, first_use, warm_use


def test_bench_e11_hot_loading(benchmark):
    rows, before, after, first_use, warm_use = benchmark.pedantic(
        _hot_load_session, rounds=1, iterations=1
    )
    print_table("E11 — hot-loading the crypto module mid-session",
                ["measure", "value"], rows)
    assert before == ["iiop"]
    assert "crypto" in after
    # Reflective loading is a local lookup: no extra simulated latency.
    assert first_use == pytest.approx(warm_use, rel=0.05)


def _unload_reload():
    world, ior, stub = _deploy()
    client = world.orb("client")
    transport = client.qos_transport
    transport.load_module("compression")
    transport.assign(ior, "compression")
    assert transport.assigned_module(ior) is not None
    transport.unload_module("compression")
    orphaned = transport.assigned_module(ior)
    # Reload through the remote command path for good measure.
    TransportHandle(client, ior).call("load_module", "compression")
    remote_loaded = "compression" in world.orb(
        "server"
    ).qos_transport.loaded_modules()
    return orphaned, remote_loaded


def test_bench_e11_unload_reload(benchmark):
    orphaned, remote_loaded = benchmark.pedantic(
        _unload_reload, rounds=1, iterations=1
    )
    print_table(
        "E11 — unload clears assignments; remote command reloads",
        ["assignment after unload", "remote reload ok"],
        [(str(orphaned), remote_loaded)],
    )
    assert orphaned is None
    assert remote_loaded


def test_bench_e11_reflective_instantiation_wall_clock(benchmark):
    """Wall-clock cost of creating a module from the registry."""
    module = benchmark(create_module, "compression")
    assert module.name == "compression"
    assert set(available_modules()) >= {
        "iiop", "compression", "crypto", "bandwidth", "multicast",
    }
