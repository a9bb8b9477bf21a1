"""E6 — compression for channels with small bandwidth (Section 6).

Round-trip time of an 8 KiB compressible fetch across a bandwidth
sweep from 64 kbit/s to 100 Mbit/s, with and without the compression
transport module, for each codec.

Expected shape: compression wins big on slow links (transfer time
dominates) and *loses* on fast links (codec CPU dominates) — the
crossover sits between 10 and 100 Mbit/s for the LZ codec with this
reproduction's CPU cost model.  RLE is cheaper but compresses this
text worse.
"""

import pytest

from _tables import print_table
from repro.orb import World
from repro.orb.modules.base import binding_key
from repro.orb.ior import QOS_TAG, TaggedComponent
from repro.workloads import compressible_text
from repro.workloads.apps import archive_module, make_archive_servant_class

BANDWIDTHS = [64e3, 256e3, 1e6, 10e6, 100e6]
PAYLOAD = compressible_text(8192, seed=5)


def _deploy(bandwidth_bps):
    world = World()
    world.add_host("client")
    world.add_host("server")
    world.connect("client", "server", latency=0.005, bandwidth_bps=bandwidth_bps)
    servant = make_archive_servant_class()()
    servant.files["doc"] = PAYLOAD
    ior = world.orb("server").poa.activate_object(
        servant,
        "archive",
        components=[TaggedComponent(QOS_TAG, {"characteristics": ["Compression"]})],
    )
    stub = archive_module.ArchiveStub(world.orb("client"), ior)
    return world, ior, stub


def _fetch_rtt(world, stub):
    start = world.clock.now
    assert stub.fetch("doc") == PAYLOAD
    return world.clock.now - start


def _sweep():
    rows = []
    results = {}
    for bandwidth in BANDWIDTHS:
        world, ior, stub = _deploy(bandwidth)
        plain = _fetch_rtt(world, stub)

        per_codec = {}
        for codec in ("lz", "rle"):
            world, ior, stub = _deploy(bandwidth)
            client = world.orb("client")
            client.qos_transport.assign(ior, "compression")
            client.qos_transport.module("compression").set_codec(
                binding_key(ior), codec
            )
            per_codec[codec] = _fetch_rtt(world, stub)

        rows.append(
            (
                f"{bandwidth / 1e3:.0f} kbit/s"
                if bandwidth < 1e6
                else f"{bandwidth / 1e6:.0f} Mbit/s",
                plain * 1e3,
                per_codec["lz"] * 1e3,
                per_codec["rle"] * 1e3,
                f"{plain / per_codec['lz']:.2f}x",
            )
        )
        results[bandwidth] = (plain, per_codec["lz"], per_codec["rle"])
    return rows, results


def test_bench_e6_bandwidth_sweep(benchmark):
    rows, results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print_table(
        "E6 — 8 KiB compressible fetch: RTT vs link bandwidth",
        ["bandwidth", "plain (ms)", "lz (ms)", "rle (ms)", "lz speedup"],
        rows,
    )
    plain_slow, lz_slow, _ = results[64e3]
    plain_fast, lz_fast, _ = results[100e6]
    # Shape: compression wins on the modem link...
    assert lz_slow < plain_slow / 1.5
    # ...and loses (or at best breaks even) on the fast LAN: crossover.
    assert lz_fast >= plain_fast
    # Speedup is monotonically shrinking as bandwidth grows.
    speedups = [results[bw][0] / results[bw][1] for bw in BANDWIDTHS]
    assert speedups == sorted(speedups, reverse=True)


def _ratio_table():
    from repro import codecs

    rows = []
    raw = PAYLOAD.encode("utf-8")
    for codec in ("rle", "lz", "delta"):
        compress, decompress = codecs.get_codec(codec)
        packed = compress(raw)
        assert decompress(packed) == raw
        rows.append(
            (
                codec,
                len(raw),
                len(packed),
                len(packed) / len(raw),
                codecs.cpu_cost(codec, len(raw)) * 1e6,
            )
        )
    return rows


def test_bench_e6_codec_ratio_and_cost(benchmark):
    rows = benchmark.pedantic(_ratio_table, rounds=1, iterations=1)
    print_table(
        "E6 — codec ratio vs simulated CPU cost (8 KiB word text)",
        ["codec", "in bytes", "out bytes", "ratio", "cpu (sim µs)"],
        rows,
    )
    by_codec = {row[0]: row for row in rows}
    # LZ compresses this text better than RLE but costs more CPU.
    assert by_codec["lz"][3] < by_codec["rle"][3]
    assert by_codec["lz"][4] > by_codec["rle"][4]


def test_bench_e6_wall_clock_codec(benchmark):
    """Wall-clock LZ compression of the 8 KiB payload."""
    from repro.codecs import lz

    raw = PAYLOAD.encode("utf-8")
    packed = benchmark(lz.compress, raw)
    assert lz.decompress(packed) == raw
