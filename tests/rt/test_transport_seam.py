"""The transport seam: the ORB binds against Transport, not netsim.

``TestSeamContract`` drives the three verbs directly on both
implementations; ``TestNetsimTransport`` and ``TestAsyncioTransport``
hold what only one of them can show.
"""

import socket

import pytest

from repro.orb import giop
from repro.orb.exceptions import (
    COMM_FAILURE,
    SystemException,
    TRANSIENT,
    is_unexecuted,
)
from repro.orb.ior import IIOPProfile, IOR
from repro.orb.request import Request
from repro.orb.servant import Servant
from repro.orb.transport import NetsimTransport, Transport
from repro.orb.world import World
from repro.rt.client import RtClient
from repro.rt.conformance import _dead_address
from repro.rt.server import RtServer, make_rt_orb
from repro.rt.transport import AsyncioTransport


class _Echo(Servant):
    _repo_id = "IDL:test/Echo:1.0"
    _default_service_time = 0.001

    #: Set by a test: runs once, mid-dispatch, after the request arrived.
    sabotage = None
    calls = 0

    def echo(self, text):
        self.calls += 1
        if self.sabotage is not None:
            sabotage, self.sabotage = self.sabotage, None
            sabotage()
        return text.upper()


def _world():
    world = World()
    world.lan(["client", "server", "ghost"])
    return world


class TestNetsimTransport:
    def test_orb_installs_it_by_default(self):
        world = _world()
        orb = world.orb("client")
        assert isinstance(orb.transport, NetsimTransport)
        assert isinstance(orb.transport, Transport)

    def test_round_trip_still_invokes(self):
        world = _world()
        server = world.orb("server")
        ior = server.poa.activate_object(_Echo())
        client = world.orb("client")
        assert client.invoke(Request(ior, "echo", ("hi",))) == "HI"

    def test_peer_lookup_failure_is_unexecuted_comm_failure(self):
        # "ghost" has links but no ORB: the forward leg succeeds, the
        # peer lookup fails, and the request provably never executed.
        world = _world()
        client = world.orb("client")
        ior = IOR("IDL:test/Echo:1.0", IIOPProfile("ghost", 683, "k"), [])
        with pytest.raises(COMM_FAILURE) as excinfo:
            client.invoke(Request(ior, "echo", ("hi",)))
        assert is_unexecuted(excinfo.value)

    def test_forward_leg_crash_is_unexecuted(self):
        world = _world()
        world.orb("server").poa.activate_object(_Echo(), object_key="e")
        world.network.host("server").crashed = True
        client = world.orb("client")
        ior = IOR("IDL:test/Echo:1.0", IIOPProfile("server", 683, "e"), [])
        with pytest.raises(COMM_FAILURE) as excinfo:
            client.invoke(Request(ior, "echo", ("hi",)))
        assert is_unexecuted(excinfo.value)

    def test_no_route_is_transient(self):
        world = World()
        world.add_host("client")
        world.add_host("island")  # no link
        world.orb("island").poa.activate_object(_Echo(), object_key="e")
        client = world.orb("client")
        ior = IOR("IDL:test/Echo:1.0", IIOPProfile("island", 683, "e"), [])
        with pytest.raises(TRANSIENT) as excinfo:
            client.invoke(Request(ior, "echo", ("hi",)))
        assert is_unexecuted(excinfo.value)

    def test_oneway_failure_swallowed_and_counted(self):
        world = _world()
        client = world.orb("client")
        ior = IOR("IDL:test/Echo:1.0", IIOPProfile("ghost", 683, "k"), [])
        client.invoke(Request(ior, "echo", ("hi",), response_expected=False))
        assert client.oneway_failures == 1

    def test_install_transport_swaps_the_seam(self):
        calls = []

        class Recording(Transport):
            def round_trip(self, dest_host, wire, depart_time, reservations=None):
                calls.append((dest_host, bytes(wire)))
                raise COMM_FAILURE("recorded, not delivered")

        world = _world()
        client = world.orb("client")
        client.install_transport(Recording())
        ior = IOR("IDL:test/Echo:1.0", IIOPProfile("server", 683, "e"), [])
        with pytest.raises(COMM_FAILURE):
            client.invoke(Request(ior, "echo", ("hi",)))
        assert len(calls) == 1 and calls[0][0] == "server"


# -- the contract, on both implementations ---------------------------------


class _NetsimSeam:
    """A client ORB and one live server on the simulated network."""

    #: Destinations nothing can reach: no ORB there / the host is down.
    unreachable = ("ghost", "down")

    def __init__(self):
        self.world = World()
        self.world.lan(["client", "server", "ghost", "down"])
        self.world.network.host("down").crashed = True
        self.orb = self.world.orb("client")
        self.servant = _Echo()
        self.ior = self.world.orb("server").poa.activate_object(self.servant)

    def lose_server_mid_call(self):
        host = self.world.network.host("server")
        self.servant.sabotage = lambda: setattr(host, "crashed", True)

    def restore_server(self):
        self.world.network.host("server").crashed = False

    def close(self):
        pass


class _SocketSeam:
    """A client ORB and one live RtServer on host loopback."""

    #: Destinations nothing can reach: no address / nobody listening.
    unreachable = ("elsewhere", "refused")

    def __init__(self):
        self.server_orb = make_rt_orb("server")
        self.servant = _Echo()
        self.ior = self.server_orb.poa.activate_object(self.servant)
        self.server = RtServer(self.server_orb)
        self.address = self.server.start()
        self.client = RtClient(
            {"server": self.address, "refused": _dead_address()}
        )
        self.orb = self.client.orb

    def lose_server_mid_call(self):
        self.server.stop()

    def restore_server(self):
        self.server = RtServer(self.server_orb, *self.address)
        self.server.start()

    def close(self):
        self.client.close()
        self.server.stop()


@pytest.fixture(params=[_NetsimSeam, _SocketSeam], ids=["netsim", "sockets"])
def seam(request):
    deployment = request.param()
    yield deployment
    deployment.close()


def _echo_wire(seam, text="hi", **kwargs):
    return giop.encode_request(Request(seam.ior, "echo", (text,), **kwargs))


class TestSeamContract:
    def test_round_trip(self, seam):
        depart = seam.orb.time_source.now()
        reply_wire, finish = seam.orb.transport.round_trip(
            "server", _echo_wire(seam), depart
        )
        assert giop.decode_reply(reply_wire).value() == "HI"
        assert finish > depart

    @pytest.mark.parametrize("which", [0, 1], ids=["absent", "down"])
    def test_unreachable_is_unexecuted(self, seam, which):
        with pytest.raises(COMM_FAILURE) as excinfo:
            seam.orb.transport.round_trip(
                seam.unreachable[which], _echo_wire(seam), 0.0
            )
        assert is_unexecuted(excinfo.value)

    def test_lost_mid_call_unmarked_next_redials(self, seam):
        transport = seam.orb.transport
        assert transport.round_trip("server", _echo_wire(seam), 0.0)
        seam.lose_server_mid_call()
        # The request left (and may have executed): not marked.
        with pytest.raises(COMM_FAILURE) as excinfo:
            transport.round_trip("server", _echo_wire(seam), 0.0)
        assert not is_unexecuted(excinfo.value)
        seam.restore_server()
        reply_wire, _ = transport.round_trip("server", _echo_wire(seam, "back"), 0.0)
        assert giop.decode_reply(reply_wire).value() == "BACK"

    def test_oneway_failure_swallowed_by_the_orb(self, seam):
        wire = _echo_wire(seam, response_expected=False)
        with pytest.raises(COMM_FAILURE):
            seam.orb.transport.one_way(seam.unreachable[0], wire, 0.0)
        dead = IOR(_Echo._repo_id, IIOPProfile(seam.unreachable[0], 683, "k"), [])
        seam.orb.invoke(Request(dead, "echo", ("hi",), response_expected=False))
        assert seam.orb.oneway_failures == 1

    def test_oneway_delivers_and_wire_stays_usable(self, seam):
        seam.orb.transport.one_way(
            "server", _echo_wire(seam, response_expected=False), 0.0
        )
        assert seam.servant.calls == 1
        reply_wire, _ = seam.orb.transport.round_trip("server", _echo_wire(seam), 0.0)
        assert giop.decode_reply(reply_wire).value() == "HI"

    def test_window_one_outcome_per_leg_in_order(self, seam):
        depart = seam.orb.time_source.now()
        legs = [(_echo_wire(seam, f"m{i}"), depart, None) for i in range(4)]
        outcomes = list(seam.orb.transport.round_trip_many("server", legs))
        assert [error for _, error, _ in outcomes] == [None] * 4
        assert [giop.decode_reply(wire).value() for wire, _, _ in outcomes] == [
            "M0", "M1", "M2", "M3",
        ]
        assert all(finish > depart for _, _, finish in outcomes)

    def test_window_to_unreachable_fails_each_leg(self, seam):
        legs = [(_echo_wire(seam), 0.0, None)] * 3
        outcomes = list(
            seam.orb.transport.round_trip_many(seam.unreachable[0], legs)
        )
        assert len(outcomes) == 3
        for reply_wire, error, _ in outcomes:
            assert reply_wire is None
            assert isinstance(error, COMM_FAILURE) and is_unexecuted(error)


class TestNetsimWindow:
    """A fault mid-window fails only the leg it hit, at a known instant."""

    def test_each_leg_fails_alone_at_its_own_instant(self):
        seam = _NetsimSeam()
        host = seam.world.network.host("server")
        wire = _echo_wire(seam)
        legs = [(wire, 1.0, None), (wire, 2.0, None), (wire, 3.0, None), (wire, 4.0, None)]
        window = seam.orb.transport.round_trip_many("server", legs)
        delay = seam.world.network.transfer_delay("client", "server", len(wire))

        reply_wire, error, finish = next(window)
        assert error is None and finish > 1.0 + delay

        host.crashed = True  # forward link: known at departure
        reply_wire, error, known_at = next(window)
        assert reply_wire is None and known_at == 2.0
        assert isinstance(error, COMM_FAILURE) and is_unexecuted(error)
        host.crashed = False

        arrived = []
        seam.world.orb("server").add_wire_observer(
            lambda direction, _: arrived.append(direction)
        )
        seam.lose_server_mid_call()  # reply link: known at the server's finish
        reply_wire, error, known_at = next(window)
        assert arrived == ["in", "out"] and known_at > 3.0 + delay
        assert isinstance(error, COMM_FAILURE) and not is_unexecuted(error)
        seam.restore_server()

        reply_wire, error, _ = next(window)  # the window carries on
        assert giop.decode_reply(reply_wire).value() == "HI"

    def test_missing_peer_is_known_on_arrival(self):
        seam = _NetsimSeam()
        wire = _echo_wire(seam)
        delay = seam.world.network.transfer_delay("client", "ghost", len(wire))
        [(reply_wire, error, known_at)] = seam.orb.transport.round_trip_many(
            "ghost", [(wire, 5.0, None)]
        )
        assert reply_wire is None and is_unexecuted(error)
        assert known_at == 5.0 + delay


class TestAsyncioTransport:
    def test_is_a_transport_and_stamps_with_its_clock(self):
        with AsyncioTransport() as transport:
            assert isinstance(transport, Transport)
            assert 0.0 <= transport.clock.now() < 5.0

    def test_broken_stream_fails_every_leg_alike(self):
        seam = _SocketSeam()
        try:
            transport = seam.orb.transport
            assert transport.round_trip("server", _echo_wire(seam), 0.0)
            seam.server.stop()
            legs = [(_echo_wire(seam, f"m{i}"), 0.0, None) for i in range(3)]
            outcomes = transport.round_trip_many("server", legs)
            errors = [error for _, error, _ in outcomes]
            assert isinstance(errors[0], COMM_FAILURE)
            assert not is_unexecuted(errors[0])
            assert errors[1] is errors[0] and errors[2] is errors[0]
        finally:
            seam.close()

    def test_silent_peer_fails_typed_and_is_dropped(self):
        """An accept-and-hold listener: no reply ever comes."""

        class Impatient(AsyncioTransport):
            def call(self, coro, timeout=30.0):
                return super().call(coro, min(timeout, 0.2))

        hole = socket.socket()
        hole.bind(("127.0.0.1", 0))
        hole.listen(4)
        try:
            with Impatient({"hole": hole.getsockname()}) as transport:
                with pytest.raises(SystemException) as excinfo:
                    transport.round_trip("hole", b"never answered", 0.0)
                assert isinstance(excinfo.value, COMM_FAILURE)
                # The request left: ambiguous, so not marked.
                assert not is_unexecuted(excinfo.value)
                # A late reply must find nobody reading: the connection
                # is gone from the cache and the next call dials anew.
                assert "hole" not in transport._connections
                with pytest.raises(COMM_FAILURE):
                    transport.round_trip("hole", b"again", 0.0)
                for frame in (b"never answered", b"again"):
                    held, _ = hole.accept()
                    held.settimeout(5.0)
                    assert held.recv(64).endswith(frame)
                    assert held.recv(64) == b""  # the client hung up
                    held.close()
        finally:
            hole.close()
