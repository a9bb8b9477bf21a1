"""AMI deferred invocation and GIOP request pipelining.

The load-bearing invariants of :mod:`repro.orb.ami`:

- ``send_deferred(...).result()`` is *exactly* the synchronous call —
  same value, same simulated clock, same bytes on the wire (request
  ids are aligned across worlds with ``reset_request_ids``).
- A pipelined window pays ~one RTT plus serialized service instead of
  N round trips.
- Replies correlate by GIOP request id even when the server's
  scheduler completes them out of order.
- QoS interception (mediators, module envelopes) wraps deferred calls
  the same way it wraps synchronous ones.
"""

import pytest

from repro.core.mediator import Mediator, MediatorChain
from repro.orb import QOS_TAG, TaggedComponent, World
from repro.orb.dii import DIIRequest
from repro.orb.exceptions import MARSHAL
from repro.orb.modules.base import binding_key, decode_envelope
from repro.orb.ami import ReplyFuture
from repro.orb.request import reset_request_ids
from repro.orb.servant import Servant
from repro.orb.stub import Stub
from repro.perf import snapshot
from repro.perf.counters import COUNTERS
from repro.sched import CLASS_CONTEXT


class EchoServant(Servant):
    _repo_id = "IDL:ami/Echo:1.0"
    _default_service_time = 0.001

    def __init__(self):
        self.calls = 0

    def echo(self, text):
        self.calls += 1
        return text.upper()

    def fail(self, message):
        self.calls += 1
        raise ValueError(message)

    def notify(self, text):
        self.calls += 1


class EchoStub(Stub):
    _oneway_ops = frozenset({"notify"})

    def echo(self, text):
        return self._call("echo", text)

    def fail(self, message):
        return self._call("fail", message)

    def notify(self, text):
        return self._call("notify", text)


def build_world(latency=0.005, qos=False, servant=None):
    """One deterministic client/server deployment, ids reset to 1."""
    reset_request_ids()
    world = World()
    world.lan(["client", "server"], latency=latency, bandwidth_bps=10e6)
    servant = servant if servant is not None else EchoServant()
    components = (
        [TaggedComponent(QOS_TAG, {"characteristics": ["compression"]})]
        if qos
        else None
    )
    ior = world.orb("server").poa.activate_object(
        servant, object_key="echo", components=components
    )
    return world, world.orb("client"), ior, servant


class TestReplyFuture:
    def test_lifecycle_queued_then_done(self):
        _, client, ior, servant = build_world()
        stub = EchoStub(client, ior)
        future = stub.send_deferred("echo", "hi")
        assert isinstance(future, ReplyFuture)
        assert not future.done
        assert not future.poll()  # not even flushed yet
        assert servant.calls == 0
        assert client.ami.queued == 1
        future.flush()
        assert future.done
        assert servant.calls == 1
        assert client.ami.queued == 0
        # Outcome known to the simulation, not yet to the caller.
        assert not future.poll()
        assert future.result() == "HI"
        assert future.poll()

    def test_result_is_idempotent(self):
        _, client, ior, _ = build_world()
        future = EchoStub(client, ior).send_deferred("echo", "x")
        assert future.result() == "X"
        assert future.result() == "X"

    def test_application_exception_raises_at_result(self):
        _, client, ior, _ = build_world()
        future = EchoStub(client, ior).send_deferred("fail", "boom")
        future.flush()
        assert not future.transport_error
        with pytest.raises(Exception, match="boom"):
            future.result()
        assert future.exception() is not None

    def test_callback_fires_on_flush(self):
        _, client, ior, _ = build_world()
        seen = []
        future = EchoStub(client, ior).send_deferred("echo", "cb")
        future.add_done_callback(lambda f: seen.append(f.request_id))
        assert seen == []
        future.flush()
        assert seen == [future.request_id]
        # A done future fires immediately.
        future.add_done_callback(lambda f: seen.append("again"))
        assert seen == [future.request_id, "again"]

    def test_oneway_via_send_deferred(self):
        _, client, ior, servant = build_world()
        future = EchoStub(client, ior).send_deferred("notify", "fire")
        # Fire-and-forget resolves on the spot through the sync path.
        assert future.done
        assert future.result() is None
        assert servant.calls == 1


class TestSyncEquivalence:
    """``invoke`` must be re-expressible as ``send_deferred().result()``."""

    @pytest.mark.parametrize("qos", [False, True], ids=["plain", "compressed"])
    def test_value_clock_and_bytes_match_sync(self, qos):
        texts = ["abcabc" * 50, "zzz", "qrs" * 120]

        def bind(client, ior):
            if qos:
                client.qos_transport.assign(ior, "compression")
                client.qos_transport.module("compression").set_codec(
                    binding_key(ior), "rle"
                )
            return EchoStub(client, ior)

        world_a, client_a, ior_a, _ = build_world(qos=qos)
        stub_a = bind(client_a, ior_a)
        wires_a = []
        world_a.orb("server").add_wire_observer(
            lambda d, w: wires_a.append((d, bytes(w)))
        )
        values_a = [stub_a.echo(text) for text in texts]

        world_b, client_b, ior_b, _ = build_world(qos=qos)
        stub_b = bind(client_b, ior_b)
        wires_b = []
        world_b.orb("server").add_wire_observer(
            lambda d, w: wires_b.append((d, bytes(w)))
        )
        values_b = [stub_b.send_deferred("echo", text).result() for text in texts]

        assert values_b == values_a == [t.upper() for t in texts]
        assert world_b.clock.now == pytest.approx(world_a.clock.now, abs=1e-12)
        # Byte-level wire format identical per message, both directions.
        assert wires_b == wires_a
        assert world_b.network.bytes_sent == world_a.network.bytes_sent

    @pytest.mark.parametrize("qos", [False, True], ids=["plain", "compressed"])
    def test_pipelined_window_sends_identical_bytes(self, qos):
        """Batching changes *when* messages leave, never their bytes."""
        texts = ["pipelined" * 30, "aa" * 200, "tail"]

        def bind(client, ior):
            if qos:
                client.qos_transport.assign(ior, "compression")
            return EchoStub(client, ior)

        world_a, client_a, ior_a, _ = build_world(qos=qos)
        stub_a = bind(client_a, ior_a)
        wires_a = []
        world_a.orb("server").add_wire_observer(
            lambda d, w: wires_a.append((d, bytes(w)))
        )
        for text in texts:
            stub_a.echo(text)

        world_b, client_b, ior_b, _ = build_world(qos=qos)
        stub_b = bind(client_b, ior_b)
        wires_b = []
        world_b.orb("server").add_wire_observer(
            lambda d, w: wires_b.append((d, bytes(w)))
        )
        futures = [stub_b.send_deferred("echo", text) for text in texts]
        results = [future.result() for future in futures]

        assert results == [t.upper() for t in texts]
        assert wires_b == wires_a

    def test_each_request_in_a_window_keeps_its_own_binding_config(self):
        """A codec switch between two deferred calls shows on the wire,
        as it does between two synchronous ones."""

        def requested_codecs(deferred):
            _, client, ior, _ = build_world(qos=True)
            client.qos_transport.assign(ior, "compression")
            module = client.qos_transport.module("compression")
            stub = EchoStub(client, ior)
            seen = []
            client.world.orb("server").add_wire_observer(
                lambda d, w: d == "in" and seen.append(decode_envelope(w)[1])
            )
            calls = []
            for codec in ("lz", "rle"):
                module.set_codec(binding_key(ior), codec)
                send = stub.send_deferred if deferred else stub._call
                calls.append(send("echo", codec * 60))
            if deferred:
                calls = [future.result() for future in calls]
            assert calls == ["LZ" * 60, "RLE" * 60]
            return [params["requested"] for params in seen]

        assert requested_codecs(deferred=False) == ["lz", "rle"]
        assert requested_codecs(deferred=True) == ["lz", "rle"]

    def test_pipelined_window_beats_sync_latency(self):
        count = 8
        world_a, client_a, ior_a, _ = build_world()
        stub_a = EchoStub(client_a, ior_a)
        start = world_a.clock.now
        for i in range(count):
            stub_a.echo(f"m{i}")
        sync_elapsed = world_a.clock.now - start

        world_b, client_b, ior_b, _ = build_world()
        stub_b = EchoStub(client_b, ior_b)
        start = world_b.clock.now
        futures = [stub_b.send_deferred("echo", f"m{i}") for i in range(count)]
        assert [f.result() for f in futures] == [f"M{i}" for i in range(count)]
        pipelined_elapsed = world_b.clock.now - start

        # One RTT + serialized service instead of N round trips.
        assert pipelined_elapsed < 0.5 * sync_elapsed


class TestPipelineMechanics:
    def test_window_auto_flush(self):
        _, client, ior, servant = build_world()
        client.ami.window = 3
        stub = EchoStub(client, ior)
        futures = [stub.send_deferred("echo", f"w{i}") for i in range(5)]
        # The third submission crossed the window: one flush happened.
        assert [f.done for f in futures] == [True, True, True, False, False]
        assert servant.calls == 3
        assert client.ami.flush() == 2
        assert all(f.done for f in futures)

    def test_out_of_order_completion_correlates_by_request_id(self):
        """Server-side priority scheduling reorders reply completion."""
        COUNTERS.reset()
        servant = EchoServant()
        servant._default_service_time = 0.010
        world, client, ior, _ = build_world(servant=servant)
        scheduler = world.orb("server").install_scheduler(policy="priority")
        scheduler.define_class("gold", weight=4.0, priority=1)
        scheduler.define_class("bronze", weight=1.0, priority=6)

        stub = EchoStub(client, ior)
        labels = ["bronze", "bronze", "bronze", "gold"]
        futures = []
        for i, label in enumerate(labels):
            stub._contexts[CLASS_CONTEXT] = label
            futures.append(stub.send_deferred("echo", f"{label}{i}"))
        client.ami.flush()

        # The later-sent gold request overtook the bronze backlog.
        gold = futures[3]
        assert gold.ready_time < futures[1].ready_time
        assert gold.ready_time < futures[2].ready_time
        assert COUNTERS.pipeline_out_of_order >= 1
        # And every future still carries *its own* reply.
        assert [f.result() for f in futures] == [
            f"{label.upper()}{i}" for i, label in enumerate(labels)
        ]

    def test_an_undecodable_reply_fails_only_its_own_future(self, monkeypatch):
        _, client, ior, _ = build_world()
        server = client.world.orb("server")
        serve = server.handle_incoming
        served = []

        def truncate_second_reply(wire, at_time):
            reply_wire, finish = serve(wire, at_time)
            served.append(reply_wire)
            if len(served) == 2:
                reply_wire = reply_wire[:-6]
            return reply_wire, finish

        monkeypatch.setattr(server, "handle_incoming", truncate_second_reply)
        stub = EchoStub(client, ior)
        futures = [stub.send_deferred("echo", f"r{i}") for i in range(3)]
        client.ami.flush()
        assert all(future.done for future in futures)
        assert isinstance(futures[1].exception(), MARSHAL)
        assert [futures[0].result(), futures[2].result()] == ["R0", "R2"]

    def test_channels_are_per_binding(self):
        reset_request_ids()
        world = World()
        world.lan(["client", "s1", "s2"], latency=0.005)
        ior1 = world.orb("s1").poa.activate_object(EchoServant(), object_key="e1")
        ior2 = world.orb("s2").poa.activate_object(EchoServant(), object_key="e2")
        client = world.orb("client")
        f1 = EchoStub(client, ior1).send_deferred("echo", "a")
        f2 = EchoStub(client, ior2).send_deferred("echo", "b")
        assert len(client.ami.channels()) == 2
        assert {f1.result(), f2.result()} == {"A", "B"}

    def test_perf_snapshot_surfaces_pipeline_counters(self):
        COUNTERS.reset()
        _, client, ior, _ = build_world()
        stub = EchoStub(client, ior)
        futures = [stub.send_deferred("echo", f"s{i}") for i in range(4)]
        panel = snapshot(client)
        assert panel["ami_inflight"] == 4
        assert panel["ami_queued"] == 4
        client.ami.flush()
        for future in futures:
            future.result()
        panel = snapshot(client)
        assert panel["host"] == "client"
        assert panel["requests_invoked"] == 4
        assert panel["oneway_failures"] == 0
        assert panel["pipeline_windows"] == 1
        assert panel["pipeline_messages"] == 4
        assert panel["pipeline_messages_per_window"] == 4.0
        assert panel["pipeline_inflight_peak"] == 4
        assert panel["ami_inflight"] == 0
        assert panel["ami_inflight_peak"] == 4


class CountingMediator(Mediator):
    characteristic = "counting"


class TestQoSInterception:
    def test_mediator_intercepts_deferred_calls(self):
        _, client, ior, _ = build_world()
        stub = EchoStub(client, ior)
        mediator = CountingMediator().install(stub)
        future = stub.send_deferred("echo", "via-mediator")
        assert mediator.calls_intercepted == 1
        assert future.result() == "VIA-MEDIATOR"

    def test_mediator_chain_passes_future_through(self):
        _, client, ior, _ = build_world()
        stub = EchoStub(client, ior)
        outer, inner = CountingMediator(), CountingMediator()
        MediatorChain(outer, inner).install(stub)
        future = stub.send_deferred("echo", "chained")
        assert (outer.calls_intercepted, inner.calls_intercepted) == (1, 1)
        assert future.result() == "CHAINED"

    def test_short_circuiting_mediator_yields_resolved_future(self):
        class CacheMediator(Mediator):
            characteristic = "cache"

            def invoke(self, stub, operation, args):
                self.calls_intercepted += 1
                return "CACHED"  # answers without issuing

        _, client, ior, servant = build_world()
        stub = EchoStub(client, ior)
        CacheMediator().install(stub)
        future = stub.send_deferred("echo", "anything")
        assert future.done
        assert future.request_id == 0  # never crossed the wire
        assert future.result() == "CACHED"
        assert servant.calls == 0


class TestDIIDeferredOnAMI:
    def test_dii_future_is_exposed(self):
        _, client, ior, _ = build_world()
        request = DIIRequest(client, ior, "echo").add_argument("dii")
        assert request.future is None
        request.send_deferred()
        assert isinstance(request.future, ReplyFuture)
        assert request.get_response() == "DII"

    def test_unflushed_dii_requests_share_a_window(self):
        COUNTERS.reset()
        _, client, ior, servant = build_world()
        requests = [
            DIIRequest(client, ior, "echo").add_argument(f"d{i}").send_deferred(
                flush=False
            )
            for i in range(3)
        ]
        assert servant.calls == 0
        assert [r.get_response() for r in requests] == ["D0", "D1", "D2"]
        assert COUNTERS.pipeline_windows == 1
        assert COUNTERS.pipeline_messages == 3


class TestLocateRequestIds:
    def test_locate_ids_come_from_the_shared_allocator(self):
        """Satellite fix: locate() must not hardcode request_id=0."""
        from repro.orb import giop

        _, client, ior, _ = build_world()
        locate_ids = []

        def tap(direction, wire):
            if (
                direction == "in"
                and giop.message_type(wire) == giop.MSG_LOCATE_REQUEST
            ):
                locate_ids.append(giop.decode_locate_request(wire)[0])

        server = client.world.orb_at("server")
        server.add_wire_observer(tap)
        stub = EchoStub(client, ior)
        assert client.locate(ior) is True
        future = stub.send_deferred("echo", "interleaved")
        assert client.locate(ior) is True
        assert future.result() == "INTERLEAVED"
        assert len(locate_ids) == 2
        # Fresh, distinct ids — never the hardwired 0, and never
        # colliding with the pipelined request in flight between them.
        assert 0 not in locate_ids
        assert len(set(locate_ids)) == 2
        assert future.request_id not in locate_ids
