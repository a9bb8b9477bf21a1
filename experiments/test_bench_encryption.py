"""E7 — privacy through encryption (Section 6).

Per-request overhead of the two ciphers over plaintext across payload
sizes, the cost of the Diffie-Hellman handshake (the "QoS to QoS"
choreography of Section 3.2), and confirmation that no plaintext byte
reaches the wire.

Expected shape: overhead grows with payload size; the stream cipher
(arc4) is cheaper than the block cipher (xtea-ctr); the handshake is a
fixed two-message cost amortised over the session.
"""

import pytest

from _tables import print_table
from repro.core.binding import QoSProvider, establish_qos
from repro.orb import World
from repro.qos.encryption.privacy import EncryptionImpl, EncryptionMediator
from repro.workloads import compressible_text
from repro.workloads.apps import archive_module, make_archive_servant_class

SIZES = [256, 4096, 65536]


def _deploy():
    world = World()
    world.add_host("client")
    world.add_host("server")
    world.connect("client", "server", latency=0.002, bandwidth_bps=10e6)
    servant = make_archive_servant_class()()
    provider = QoSProvider(world, "server", servant)
    provider.support("Encryption", EncryptionImpl(), capabilities={})
    ior = provider.activate("archive")
    stub = archive_module.ArchiveStub(world.orb("client"), ior)
    return world, servant, stub


def _store_rtt(world, stub, payload):
    start = world.clock.now
    stub.store("doc", payload)
    return world.clock.now - start


def _overhead_sweep():
    rows = []
    overheads = {}
    for size in SIZES:
        payload = compressible_text(size, seed=size)
        world, servant, stub = _deploy()
        plain = _store_rtt(world, stub, payload)
        per_cipher = {}
        for cipher in ("arc4", "xtea-ctr"):
            world, servant, stub = _deploy()
            mediator = EncryptionMediator(cipher=cipher)
            establish_qos(stub, "Encryption", mediator=mediator)
            mediator.establish_key(stub)
            per_cipher[cipher] = _store_rtt(world, stub, payload)
        rows.append(
            (
                size,
                plain * 1e3,
                per_cipher["arc4"] * 1e3,
                per_cipher["xtea-ctr"] * 1e3,
                (per_cipher["xtea-ctr"] / plain - 1) * 100,
            )
        )
        overheads[size] = (plain, per_cipher["arc4"], per_cipher["xtea-ctr"])
    return rows, overheads


def test_bench_e7_cipher_overhead(benchmark):
    rows, overheads = benchmark.pedantic(_overhead_sweep, rounds=1, iterations=1)
    print_table(
        "E7 — store() RTT: plaintext vs ciphers (10 Mbit/s link)",
        ["payload B", "plain (ms)", "arc4 (ms)", "xtea-ctr (ms)", "xtea ovh %"],
        rows,
    )
    for size in SIZES:
        plain, arc4, xtea = overheads[size]
        assert plain <= arc4 <= xtea  # cipher cost ordering
    # Absolute overhead grows with the payload.
    small = overheads[SIZES[0]][2] - overheads[SIZES[0]][0]
    large = overheads[SIZES[-1]][2] - overheads[SIZES[-1]][0]
    assert large > small * 10


def _handshake_cost():
    world, servant, stub = _deploy()
    mediator = EncryptionMediator()
    establish_qos(stub, "Encryption", mediator=mediator)
    messages_before = world.network.messages_sent
    start = world.clock.now
    mediator.establish_key(stub)
    return world.clock.now - start, world.network.messages_sent - messages_before


def test_bench_e7_handshake(benchmark):
    elapsed, messages = benchmark.pedantic(_handshake_cost, rounds=1, iterations=1)
    print_table(
        "E7 — Diffie-Hellman handshake over the peer operation",
        ["simulated ms", "wire messages"],
        [(elapsed * 1e3, messages)],
    )
    assert messages == 2  # request + reply; the key itself never travels
    assert elapsed > 0.004


def _confidentiality_check():
    world, servant, stub = _deploy()
    mediator = EncryptionMediator()
    establish_qos(stub, "Encryption", mediator=mediator)
    mediator.establish_key(stub)
    secret = "TOPSECRET-" * 40
    observed = []
    server = world.orb("server")
    original = server.handle_incoming

    def wiretap(wire, at_time):
        observed.append(bytes(wire))
        return original(wire, at_time)

    server.handle_incoming = wiretap
    stub.store("doc", secret)
    fetched = stub.fetch("doc")
    leaked = sum(1 for wire in observed if b"TOPSECRET" in wire)
    return fetched == secret, leaked, len(observed)


def test_bench_e7_no_plaintext_on_wire(benchmark):
    intact, leaked, total = benchmark.pedantic(
        _confidentiality_check, rounds=1, iterations=1
    )
    print_table(
        "E7 — wiretap: plaintext fragments on the wire",
        ["roundtrip intact", "messages leaking", "messages observed"],
        [(intact, leaked, total)],
    )
    assert intact
    assert leaked == 0
    assert total >= 2


def test_bench_e7_wall_clock_xtea(benchmark):
    """Wall-clock XTEA-CTR over a 4 KiB block."""
    from repro.ciphers import xtea

    key = b"0123456789abcdef"
    payload = compressible_text(4096, seed=1).encode()
    sealed = benchmark(xtea.encrypt, key, payload)
    assert xtea.decrypt(key, sealed) == payload
