"""E2 — Figure 2: the QIDL server-side mapping.

A server assigned three QoS characteristics is negotiated into each of
them in turn; the dispatch matrix shows which operations are processed
versus refused (BAD_QOS), proving "only the operations of the actual
negotiated QoS characteristic are processed while others raise an
exception".  The prolog/epilog bracket is traced, and the wall-clock
interposition overhead of the woven server base over the plain typed
skeleton is measured with pytest-benchmark.
"""

import pytest

from _tables import print_table
from repro.core.binding import QoSProvider
from repro.core.negotiation import Range
from repro.orb import World
from repro.orb.exceptions import BAD_QOS
from repro.qos.actuality.freshness import ActualityImpl
from repro.qos.compression.payload import CompressionImpl
from repro.qos.encryption.privacy import EncryptionImpl
from repro.workloads.apps import archive_module, make_archive_servant_class

#: One probe operation per characteristic, plus an application op.
PROBES = {
    "app: size()": ("size", ()),
    "Compression: get_codec()": ("get_codec", ()),
    "Encryption: get_cipher()": ("get_cipher", ()),
    "Actuality: get_max_age()": ("get_max_age", ()),
}

CHARACTERISTICS = ("Compression", "Encryption", "Actuality")


def _deploy():
    world = World()
    world.lan(["client", "server"], latency=0.001)
    servant = make_archive_servant_class()()
    provider = QoSProvider(world, "server", servant)
    provider.support(
        "Compression", CompressionImpl(), capabilities={"threshold": Range(64, 4096)}
    )
    provider.support("Encryption", EncryptionImpl(), capabilities={})
    provider.support(
        "Actuality",
        ActualityImpl().attach_clock(world.clock),
        capabilities={"max_age": Range(0.1, 10.0)},
    )
    ior = provider.activate("archive")
    stub = archive_module.ArchiveStub(world.orb("client"), ior)
    return world, servant, stub


def _dispatch_matrix():
    world, servant, stub = _deploy()
    rows = []
    for active in (None,) + CHARACTERISTICS:
        servant.activate_qos(active)
        outcomes = []
        for probe_name, (operation, args) in PROBES.items():
            try:
                getattr(stub, operation)(*args)
                outcomes.append("ok")
            except BAD_QOS:
                outcomes.append("BAD_QOS")
        rows.append((active or "(none)",) + tuple(outcomes))
    return rows


def test_bench_e2_dispatch_matrix(benchmark):
    rows = benchmark.pedantic(_dispatch_matrix, rounds=1, iterations=1)
    print_table(
        "E2 / Figure 2 — dispatch by negotiated characteristic",
        ["active characteristic"] + list(PROBES),
        rows,
    )
    # Shape: the app op always works; each QoS op only under its owner.
    for index, row in enumerate(rows):
        assert row[1] == "ok"  # application operation
        for column, characteristic in enumerate(CHARACTERISTICS, start=2):
            expected = "ok" if row[0] == characteristic else "BAD_QOS"
            assert row[column] == expected


def test_bench_e2_prolog_epilog_bracket(benchmark):
    def scenario():
        world, servant, stub = _deploy()
        trace = []

        class TracingImpl(CompressionImpl):
            def prolog(self, servant, operation, args, contexts):
                trace.append(("prolog", operation))
                return super().prolog(servant, operation, args, contexts)

            def epilog(self, servant, operation, result, contexts):
                trace.append(("epilog", operation))
                return super().epilog(servant, operation, result, contexts)

        servant.set_qos_impl(TracingImpl())
        servant.activate_qos("Compression")
        stub.store("k", "v")
        stub.size()
        return trace

    trace = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert trace == [
        ("prolog", "store"),
        ("epilog", "store"),
        ("prolog", "size"),
        ("epilog", "size"),
    ]
    print("\nE2 prolog/epilog bracket trace:", trace)


def test_bench_e2_interposition_overhead(benchmark):
    """Wall-clock cost of the woven dispatch path vs the plain skeleton."""
    world, servant, stub = _deploy()
    servant.set_qos_impl(CompressionImpl())
    servant.activate_qos("Compression")

    def dispatch_through_weaving():
        servant._dispatch("size", (), {})

    benchmark(dispatch_through_weaving)
    # Sanity: the woven path still returns correct results.
    assert servant._dispatch("size", (), {}) == 0
