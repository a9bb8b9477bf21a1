"""Burst batching through QoS modules must be invisible on the wire.

``wrap_burst`` amortises only the Python-level transform setup (codec
lookup, key resolution) across one AMI window; the produced bytes,
envelope params and simulated CPU charges are asserted identical to
the per-message path.  (That a whole window is byte-identical to the
synchronous calls is ``test_ami.py``'s
``test_pipelined_window_sends_identical_bytes``.)
"""

import random

import pytest

from repro.orb import QOS_TAG, TaggedComponent, World
from repro.orb.modules.base import binding_key
from repro.orb.modules.compression import CompressionModule
from repro.orb.modules.crypto import CryptoModule
from repro.orb.stub import Stub
from repro.perf.counters import COUNTERS
from tests.orb.conftest import EchoServant

COMPRESSIBLE = ("abcabcabc" * 200).encode()


def noise(n, seed=7):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


def make_bodies():
    """A mix of compressible and incompressible message bodies."""
    return [COMPRESSIBLE, noise(600), b"x" * 400, noise(300, seed=9), b"y" * 5]


class TestCompressionBurst:
    def test_wrap_burst_matches_single_wraps(self):
        module = CompressionModule()
        context = {"codec": "lz"}
        bodies = make_bodies()
        single = [module.wrap(body, context) for body in bodies]
        burst_module = CompressionModule()
        burst = burst_module.wrap_burst(bodies, context)
        assert burst == single
        assert burst_module.bytes_in == module.bytes_in
        assert burst_module.bytes_out == module.bytes_out
        # The mix really exercised the identity fallback.
        assert {params["codec"] for params, _, _ in burst} >= {"lz", "identity"}

    def test_burst_counters_account_messages(self):
        COUNTERS.reset()
        CompressionModule().wrap_burst(make_bodies(), {"codec": "lz"})
        assert COUNTERS.module_bursts == 1
        assert COUNTERS.module_burst_messages == len(make_bodies())

    def test_empty_burst_is_a_noop(self):
        assert CompressionModule().wrap_burst([], {"codec": "lz"}) == []


class TestCryptoBurst:
    def make_module(self):
        module = CryptoModule()
        module.install_key("s1", b"0123456789abcdef")
        return module

    def test_wrap_burst_matches_single_wraps(self):
        context = {"cipher": "xtea-ctr", "key_id": "s1"}
        bodies = make_bodies()
        single_module = self.make_module()
        single = [single_module.wrap(body, context) for body in bodies]
        burst = self.make_module().wrap_burst(bodies, context)
        assert burst == single

    def test_wrap_burst_roundtrips(self):
        module = self.make_module()
        context = {"cipher": "xtea-ctr", "key_id": "s1"}
        wrapped = module.wrap_burst(make_bodies(), context)
        bodies = [module.unwrap(params, payload)[0] for params, payload, _ in wrapped]
        assert bodies == make_bodies()


class _EchoStub(Stub):
    _oneway_ops = frozenset({"whoami"})

    def echo(self, text):
        return self._call("echo", text)


def pipeline_world():
    """One deterministic world with a compressed echo binding."""
    world = World()
    world.lan(["client", "server"], latency=0.002, bandwidth_bps=1e6)
    servant = EchoServant("server")
    ior = world.orb("server").poa.activate_object(
        servant,
        object_key="echo",
        components=[TaggedComponent(QOS_TAG, {"characteristics": ["compression"]})],
    )
    client = world.orb("client")
    client.qos_transport.assign(ior, "compression")
    module = client.qos_transport.module("compression")
    module.set_codec(binding_key(ior), "rle")
    payloads = ["a" * 300, "bcd" * 150, "e" * 20, "fgfgfg" * 80]
    return _EchoStub(client, ior), servant, payloads, [t.upper() for t in payloads]


class TestSendPipeline:
    """The one window path: ``send_deferred`` futures through a module."""

    def test_pipeline_counts_one_burst(self):
        stub, _, payloads, expected = pipeline_world()
        COUNTERS.reset()
        futures = [stub.send_deferred("echo", text) for text in payloads]
        assert [future.result() for future in futures] == expected
        # One window: the client's wrap prolog ran once for all four.
        assert COUNTERS.pipeline_windows == 1
        assert COUNTERS.module_bursts == 1
        assert COUNTERS.module_burst_messages == len(payloads)

    def test_oneway_batch_falls_back_to_sequential(self):
        stub, servant, payloads, expected = pipeline_world()
        first = stub.send_deferred("echo", payloads[0])
        oneway = stub.send_deferred("whoami")
        # The oneway went out on its own, through the module, at once;
        # the two-way before it is still queued in its window.
        assert oneway.done and not first.done
        assert servant.calls == 1
        assert stub._orb.qos_transport.module("compression").requests_sent == 1
        assert oneway.result() is None
        rest = [stub.send_deferred("echo", text) for text in payloads[1:]]
        assert [f.result() for f in [first] + rest] == expected
