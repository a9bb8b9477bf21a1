"""Ablations of this reproduction's design choices.

Not paper experiments — these quantify the cost/benefit of decisions
DESIGN.md makes, so reviewers can judge whether conclusions depend on
them:

- A1: the module **envelope** (magic + name + params) adds wire bytes
  to every transformed message — how many, and when does it stop
  mattering?
- A2: the **best-effort floor** keeps unreserved traffic alive on a
  fully reserved link — what happens without it?
- A3: **mediator chain depth** — interposition cost per stacked
  client-side concern (wall clock).
- A4: the **marshal-cost constant** — does the E6 compression
  crossover survive a 10x swing of the CPU cost model?
"""

import pytest

from _tables import print_table
from repro.core.mediator import Mediator, MediatorChain
from repro.orb import World, giop
from repro.orb.modules.base import encode_envelope
from repro.orb.ior import IOR, IIOPProfile, QOS_TAG, TaggedComponent
from repro.orb.request import Request
from repro.orb.servant import Servant
from repro.orb.stub import Stub
from repro.workloads import compressible_text
from repro.workloads.apps import archive_module, make_archive_servant_class


class EchoServant(Servant):
    _repo_id = "IDL:ablation/Echo:1.0"

    def echo(self, text):
        return text


class EchoStub(Stub):
    def echo(self, text):
        return self._call("echo", text)


def _envelope_rows():
    rows = []
    target = IOR("IDL:ablation/Echo:1.0", IIOPProfile("h", 683, "k"))
    for size in (16, 256, 4096):
        request = Request(target, "echo", ("x" * size,))
        plain = giop.encode_request(request)
        enveloped = encode_envelope(
            "compression", {"codec": "lz", "requested": "lz"}, plain
        )
        overhead = len(enveloped) - len(plain)
        rows.append((size, len(plain), len(enveloped), overhead,
                     overhead / len(plain) * 100))
    return rows


def test_bench_a1_envelope_overhead(benchmark):
    rows = benchmark.pedantic(_envelope_rows, rounds=1, iterations=1)
    print_table(
        "A1 — module envelope overhead per message",
        ["payload B", "GIOP bytes", "enveloped bytes", "overhead B", "%"],
        rows,
    )
    overheads = [row[3] for row in rows]
    # Constant-size overhead: identical regardless of payload.
    assert max(overheads) - min(overheads) <= 8  # alignment wiggle only
    # Negligible for kilobyte payloads.
    assert rows[-1][4] < 3.0


def _floor_rows():
    from repro.netsim import network as network_module

    rows = []
    results = {}
    for floor in (0.05, 0.0):
        original = network_module.BEST_EFFORT_FLOOR
        network_module.BEST_EFFORT_FLOOR = floor
        try:
            world = World()
            world.add_host("client")
            world.add_host("server")
            link = world.connect("client", "server", latency=0.001,
                                 bandwidth_bps=1e6)
            world.resources.reserve("client", "server", 0.9e6)  # hog it
            link.background_flows = 50  # heavy best-effort contention
            ior = world.orb("server").poa.activate_object(EchoServant())
            stub = EchoStub(world.orb("client"), ior)
            start = world.clock.now
            stub.echo("y" * 2000)
            rtt = world.clock.now - start
            rows.append((f"{floor:.0%}", rtt * 1e3))
            results[floor] = rtt
        finally:
            network_module.BEST_EFFORT_FLOOR = original
    return rows, results


def test_bench_a2_best_effort_floor(benchmark):
    rows, results = benchmark.pedantic(_floor_rows, rounds=1, iterations=1)
    print_table(
        "A2 — best-effort RTT on a 90%-reserved link, with/without floor",
        ["best-effort floor", "rtt (sim ms)"],
        rows,
    )
    # Without the floor, best-effort traffic shares the 10% residue
    # with 50 background flows (~2 kbit/s each) and effectively
    # starves; the floor guarantees 5% of capacity and keeps it usable.
    assert results[0.0] > results[0.05] * 10


def _chain_depths():
    world = World()
    world.lan(["client", "server"], latency=0.0)
    ior = world.orb("server").poa.activate_object(EchoServant())
    stub = EchoStub(world.orb("client"), ior)

    class Passthrough(Mediator):
        characteristic = "__pass__"

    depths = (0, 1, 2, 4, 8)
    import time

    rows = []
    for depth in depths:
        if depth == 0:
            stub._set_mediator(None)
        else:
            MediatorChain(*[Passthrough() for _ in range(depth)]).install(stub)
        iterations = 2000
        started = time.perf_counter()
        for _ in range(iterations):
            stub.echo("x")
        elapsed = (time.perf_counter() - started) / iterations
        rows.append((depth, elapsed * 1e6))
    return rows


def test_bench_a3_mediator_chain_depth(benchmark):
    rows = benchmark.pedantic(_chain_depths, rounds=1, iterations=1)
    print_table(
        "A3 — wall-clock cost per call vs mediator chain depth",
        ["chain depth", "µs/call (wall)"],
        rows,
    )
    base = rows[0][1]
    deepest = rows[-1][1]
    # Interposition is cheap: eight stacked concerns below 4x the bare call.
    assert deepest < base * 4


def _crossover_for_marshal_cost(factor):
    from repro.orb.orb import ORB

    original = ORB.MARSHAL_COST_PER_BYTE
    ORB.MARSHAL_COST_PER_BYTE = original * factor
    try:
        payload = compressible_text(8192, seed=5)
        speedups = []
        for bandwidth in (64e3, 100e6):
            world = World()
            world.add_host("client")
            world.add_host("server")
            world.connect("client", "server", latency=0.005,
                          bandwidth_bps=bandwidth)
            servant = make_archive_servant_class()()
            servant.files["doc"] = payload
            ior = world.orb("server").poa.activate_object(
                servant, "a",
                components=[TaggedComponent(QOS_TAG, {"characteristics": ["Compression"]})],
            )
            stub = archive_module.ArchiveStub(world.orb("client"), ior)
            start = world.clock.now
            stub.fetch("doc")
            plain = world.clock.now - start
            world.orb("client").qos_transport.assign(ior, "compression")
            start = world.clock.now
            stub.fetch("doc")
            compressed = world.clock.now - start
            speedups.append(plain / compressed)
        return speedups  # [slow-link speedup, fast-link speedup]
    finally:
        ORB.MARSHAL_COST_PER_BYTE = original


def _sensitivity_rows():
    rows = []
    outcomes = {}
    for factor in (0.1, 1.0, 10.0):
        slow, fast = _crossover_for_marshal_cost(factor)
        rows.append((f"{factor}x", f"{slow:.2f}x", f"{fast:.2f}x"))
        outcomes[factor] = (slow, fast)
    return rows, outcomes


def test_bench_a4_marshal_cost_sensitivity(benchmark):
    rows, outcomes = benchmark.pedantic(_sensitivity_rows, rounds=1, iterations=1)
    print_table(
        "A4 — E6 conclusion vs marshal-cost constant (speedup of compression)",
        ["marshal cost", "64 kbit/s link", "100 Mbit/s link"],
        rows,
    )
    # The qualitative E6 conclusion is robust across a 100x swing:
    # compression always wins on the slow link and never wins big on
    # the fast one.
    for factor, (slow, fast) in outcomes.items():
        assert slow > 1.3
        assert fast < 1.1
