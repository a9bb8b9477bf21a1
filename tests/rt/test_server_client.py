"""RtServer/RtClient: the ORB over real sockets, in-process.

The transport's failure contract is pinned in ``test_transport_seam.py``.
"""

import pytest

from repro.orb import giop
from repro.orb.exceptions import BAD_PARAM, OVERLOAD, SystemException
from repro.orb.ior import GROUP_TAG, QOS_TAG, IIOPProfile, IOR, TaggedComponent
from repro.orb.modules.base import encode_envelope
from repro.orb.request import Request, reset_request_ids
from repro.orb.stub import Stub
from repro.perf.counters import COUNTERS
from repro.reliability.mediator import ReliabilityMediator
from repro.reliability.policy import ReliabilityPolicy
from repro.rt.client import RtClient
from repro.rt.scenarios import ConformanceEchoServant, SlowEchoServant
from repro.rt.server import RtServer, make_rt_orb


class _WhoAmI(Stub):
    def whoami(self):
        return self._call("whoami")


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_request_ids()


@pytest.fixture()
def served():
    orb = make_rt_orb("server")
    ior = orb.poa.activate_object(ConformanceEchoServant("wall"), object_key="echo")
    with RtServer(orb) as server:
        with RtClient({"server": server.address}) as client:
            yield server, client, ior


class TestRoundTrips:
    def test_echo(self, served):
        _, client, ior = served
        assert client.invoke(Request(ior, "echo", ("over tcp",))) == "OVER TCP"

    def test_unicode_payload(self, served):
        _, client, ior = served
        assert client.invoke(Request(ior, "echo", ("ünï ✓",))) == "ÜNÏ ✓"

    def test_user_exception_travels_encoded(self, served):
        _, client, ior = served
        with pytest.raises(SystemException) as excinfo:
            client.invoke(Request(ior, "fail", ("boom",)))
        assert "ValueError: boom" in str(excinfo.value)

    def test_oneway_ack_is_discarded(self, served):
        server, client, ior = served
        value = client.invoke(Request(ior, "echo", ("x",), response_expected=False))
        assert value is None
        # The stream stays aligned: the next two-way call still works.
        assert client.invoke(Request(ior, "whoami", ())) == "wall"

    def test_locate(self, served):
        _, client, ior = served
        assert client.locate(ior) is True
        missing = IOR("IDL:test/Echo:1.0", IIOPProfile("server", 683, "nope"), [])
        assert client.locate(missing) is False

    def test_pipelined_window_correlates_by_request_id(self, served):
        _, client, ior = served
        requests = [Request(ior, "echo", (f"m{i}",)) for i in range(10)]
        replies = client.invoke_window(requests)
        assert [r.value() for r in replies] == [f"M{i}" for i in range(10)]
        assert [r.request_id for r in replies] == [r.request_id for r in requests]

    def test_hostile_envelope_is_answered_and_the_connection_lives(self, served):
        _, client, ior = served
        connection = client.connection("server")
        hostile = encode_envelope("compression", {"codec": "zstd"}, b"x" * 16)
        reply = giop.decode_reply(connection.round_trip(hostile))
        assert type(reply.exception) is BAD_PARAM
        # Same socket, next frame: the handler task survived the refusal.
        assert client.connection("server") is connection
        assert client.invoke(Request(ior, "whoami", ())) == "wall"

    def test_counters_track_frames(self, served):
        COUNTERS.reset()
        _, client, ior = served
        client.invoke(Request(ior, "echo", ("count me",)))
        assert COUNTERS.rt_frames_out >= 1
        assert COUNTERS.rt_frames_in >= 1
        assert COUNTERS.rt_bytes_out > 0
        assert COUNTERS.rt_bytes_in > 0


class TestWallClockQoS:
    def test_scheduler_sheds_and_hints_on_wall_time(self):
        orb = make_rt_orb("server")
        orb.install_scheduler("fifo", max_depth=2)
        ior = orb.poa.activate_object(SlowEchoServant("busy"), object_key="slow")
        with RtServer(orb) as server:
            with RtClient({"server": server.address}) as client:
                requests = [Request(ior, "echo", (f"r{i}",)) for i in range(8)]
                replies = client.invoke_window(requests)
                shed = [r for r in replies if isinstance(r.exception, OVERLOAD)]
                served_ok = [r for r in replies if r.exception is None]
                assert len(served_ok) == 2
                assert len(shed) == 6
                # Rejections carried wall-clock retry-after hints, and
                # the client's backpressure tracker absorbed them.
                assert all(
                    getattr(r.exception, "retry_after", None) for r in shed
                )
                assert client.orb.backpressure.hints_observed >= len(shed)

    def test_trace_module_times_calls_on_the_wall_clock(self):
        orb = make_rt_orb("server")
        ior = orb.poa.activate_object(
            ConformanceEchoServant("traced"),
            object_key="echo",
            components=[TaggedComponent(QOS_TAG, {"characteristics": ["trace"]})],
        )
        with RtServer(orb) as server:
            with RtClient({"server": server.address}) as client:
                binding = client.assign(ior, "trace")
                for i in range(5):
                    assert client.invoke(Request(ior, "echo", (f"t{i}",))) == f"T{i}"
                totals = client.module("trace").totals(binding)
        assert totals["calls"] == 5.0
        assert totals["bytes"] > 0
        # Each call took real time on the client's clock.
        assert totals["seconds"] > 0.0

    def test_reliable_invoker_fails_over_to_live_replica(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()
        probe.close()
        orb = make_rt_orb("s2")
        live = orb.poa.activate_object(
            ConformanceEchoServant("replica-2"), object_key="rep"
        )
        primary = IOR("IDL:test/Echo:1.0", IIOPProfile("s1", 683, "rep"), [])
        group = IOR(
            "IDL:test/Echo:1.0",
            primary.profile,
            [
                TaggedComponent(
                    GROUP_TAG,
                    {
                        "group": "g",
                        "members": [primary.to_string(), live.to_string()],
                    },
                )
            ],
        )
        with RtServer(orb) as server:
            with RtClient({"s1": dead, "s2": server.address}) as client:
                # The reliable invoker is the one the simulator uses: a
                # stub on the client ORB with the mediator installed.
                stub = _WhoAmI(client.orb, group)
                mediator = ReliabilityMediator(ReliabilityPolicy(max_retries=3))
                mediator.install(stub)
                COUNTERS.reset()
                assert stub.whoami() == "replica-2"
                assert mediator.retries_used == 1
                # One failover, counted once (a second client stack
                # used to count it again on top of the rotation's own).
                assert COUNTERS.rel_failovers == 1
