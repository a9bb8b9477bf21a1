"""AMI windows through a QoS module: one window, sealed per message.

A window seals each request with the module's own ``seal`` (the same
half the synchronous ``exchange`` runs), so the bytes are those of the
synchronous calls — ``test_ami.py``'s
``test_pipelined_window_sends_identical_bytes``.
"""

from repro.orb import QOS_TAG, TaggedComponent, World
from repro.orb.modules.base import binding_key
from repro.orb.stub import Stub
from repro.perf.counters import COUNTERS
from tests.orb.conftest import EchoServant


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

    def test_pipeline_counts_one_window(self):
        stub, _, payloads, expected = pipeline_world()
        COUNTERS.reset()
        futures = [stub.send_deferred("echo", text) for text in payloads]
        assert [future.result() for future in futures] == expected
        assert COUNTERS.pipeline_windows == 1
        assert COUNTERS.pipeline_messages == len(payloads)

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
