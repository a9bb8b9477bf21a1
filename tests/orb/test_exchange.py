"""``QoSModule.exchange``: the one client-side data path.

Every client-side caller — ``send_request``, multicast fan-out, event
publication, the open-loop drivers — goes through ``exchange``; the AMI
window runs its two halves, ``seal`` and ``open``.  These tests hold it
to the synchronous contract it replaced: it moves no clock, and what it
hands back as ``error`` is what ``send_request`` raises.
"""

import pytest

from repro.orb import QOS_TAG, TaggedComponent, World
from repro.orb.exceptions import COMM_FAILURE, is_unexecuted
from repro.orb.invocation import route
from repro.orb.modules.base import binding_key
from repro.orb.request import Request, reset_request_ids
from tests.orb.conftest import EchoServant

KEY = b"0123456789abcdef"


def _plain(world, client, ior):
    return Request(ior, "echo", ("hello " * 40,))


def _compressed(world, client, ior):
    client.qos_transport.assign(ior, "compression")
    client.qos_transport.module("compression").set_codec(binding_key(ior), "rle")
    return Request(ior, "echo", ("a" * 300,))


def _encrypted(world, client, ior):
    client.qos_transport.assign(ior, "crypto")
    local = client.qos_transport.module("crypto")
    local.install_key("k1", KEY)
    local.set_cipher(binding_key(ior), "xtea-ctr", "k1")
    world.orb("server").qos_transport.load_module("crypto").install_key("k1", KEY)
    return Request(ior, "echo", ("secret",))


def _oneway(world, client, ior):
    return Request(ior, "echo", ("fire",), response_expected=False)


def _crashed(world, client, ior):
    world.faults.crash("server")
    return Request(ior, "echo", ("nobody home",))


CASES = {
    "iiop": _plain,
    "compression-rle": _compressed,
    "crypto": _encrypted,
    "oneway": _oneway,
    "crashed-peer": _crashed,
}


def _deploy(setup):
    """A fresh world, ids reset, and the request ``setup`` prepares."""
    reset_request_ids()
    world = World()
    world.lan(["client", "server"], latency=0.004, bandwidth_bps=1e6)
    ior = world.orb("server").poa.activate_object(
        EchoServant("server"),
        object_key="echo",
        components=[TaggedComponent(QOS_TAG, {"characteristics": ["compression"]})],
    )
    client = world.orb("client")
    return world, client, setup(world, client, ior)


@pytest.mark.parametrize("setup", CASES.values(), ids=CASES.keys())
def test_exchange_moves_no_clock_and_reports_what_send_request_raises(setup):
    world, client, request = _deploy(setup)
    module = route(client, request)
    start = world.clock.now
    reply, error, finish, bytes_out, bytes_in = module.exchange(
        client, request, start
    )
    assert world.clock.now == start
    assert finish >= start and bytes_out > 0
    assert (reply is None) == (error is not None or not request.response_expected)
    if error is not None:
        assert bytes_in == 0

    # The same call, synchronously, in an identical world.
    world_b, client_b, request_b = _deploy(setup)
    send = route(client_b, request_b).send_request
    if error is not None:
        with pytest.raises(Exception) as raised:
            send(client_b, request_b)
        assert raised.type is type(error)
        return
    sync_reply = send(client_b, request_b)
    assert world_b.clock.now == finish
    if reply is not None:
        assert reply.value() == sync_reply.value()


def test_a_forward_leg_error_is_marked_unexecuted():
    _, client, request = _deploy(_crashed)
    _, error, _, _, _ = client.qos_transport.iiop_module.exchange(client, request, 0.0)
    assert type(error) is COMM_FAILURE
    assert is_unexecuted(error)
