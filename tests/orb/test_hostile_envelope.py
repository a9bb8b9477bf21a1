"""Hostile module envelopes are answered, never raised.

Everything inside an ``MQOS`` envelope is the peer's to choose: the
module name, the transform parameters, the payload.  Whatever it names,
``ORB.handle_incoming`` must come back with an encoded CORBA system
exception — an escaping exception is an unanswered request on netsim
and a dead connection on sockets (``tests/rt/test_server_client.py``) —
and wire observers must see that answer like any other.
"""

import pytest

from repro.orb import World, giop
from repro.orb.cdr import CDREncoder
from repro.orb.exceptions import BAD_PARAM, MARSHAL, NO_PERMISSION, NO_RESOURCES
from repro.orb.modules.base import ENVELOPE_MAGIC, encode_envelope
from repro.orb.request import Request
from repro.orb.servant import Servant
from repro.perf import WireStats


class Echo(Servant):
    _repo_id = "IDL:hostile/Echo:1.0"

    def echo(self, text):
        return text


@pytest.fixture
def deployment():
    world = World()
    world.lan(["client", "server"], latency=0.001)
    ior = world.orb("server").poa.activate_object(Echo())
    return world.orb("server"), ior


def _non_map_params():
    encoder = CDREncoder()
    encoder.write_raw(ENVELOPE_MAGIC)
    encoder.write_string("compression")
    encoder.write_any([1, 2, 3])
    encoder.write_octets(b"x")
    return encoder.getvalue()


HOSTILE = {
    "unknown-cipher": (
        encode_envelope("crypto", {"cipher": "rot13", "key_id": "k"}, b"x" * 16),
        BAD_PARAM,
    ),
    "unknown-codec": (
        encode_envelope("compression", {"codec": "zstd"}, b"x" * 16),
        BAD_PARAM,
    ),
    "unhashable-codec-name": (
        encode_envelope("compression", {"codec": ["lz"]}, b"x" * 16),
        BAD_PARAM,
    ),
    "unknown-module": (encode_envelope("no-such-module", {}, b"x"), NO_RESOURCES),
    "truncated-envelope": (
        encode_envelope("compression", {"codec": "lz"}, b"payload" * 8)[:30],
        MARSHAL,
    ),
    "non-map-params": (_non_map_params(), MARSHAL),
    "corrupt-payload": (
        # An lz match token with its three operand bytes missing.
        encode_envelope("compression", {"codec": "lz"}, b"\x01\x00"),
        MARSHAL,
    ),
    "missing-session-key": (
        encode_envelope("crypto", {"cipher": "xtea-ctr", "key_id": "nope"}, b"x" * 16),
        NO_PERMISSION,
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_envelope_is_answered_with_a_system_exception(deployment, case):
    server, _ = deployment
    wire, expected = HOSTILE[case]
    stats = WireStats().attach(server)
    reply_wire, finish = server.handle_incoming(wire, 1.0)
    reply = giop.decode_reply(reply_wire)
    assert type(reply.exception) is expected
    assert finish > 1.0
    # add_wire_observer promises every answer, refusals included.
    assert (stats.messages_in, stats.messages_out) == (1, 1)
    assert stats.bytes_out == len(reply_wire)


def test_reply_transform_named_by_the_envelope_is_refused_too(deployment):
    """``requested`` steers the *reply's* codec: the request unwraps
    (identity) and executes, and only then does the bad name surface."""
    server, ior = deployment
    body = giop.encode_request(Request(ior, "echo", ("hi",)))
    wire = encode_envelope(
        "compression", {"codec": "identity", "requested": "zstd"}, body
    )
    reply_wire, _ = server.handle_incoming(wire, 0.0)
    assert type(giop.decode_reply(reply_wire).exception) is BAD_PARAM


def test_the_server_keeps_serving_after_a_refusal(deployment):
    server, ior = deployment
    server.handle_incoming(HOSTILE["unknown-codec"][0], 0.0)
    request = Request(ior, "echo", ("still here",))
    reply_wire, _ = server.handle_incoming(giop.encode_request(request), 0.0)
    assert giop.decode_reply(reply_wire).value() == "still here"
