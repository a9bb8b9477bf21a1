"""Adversarial wire inputs: malformed and mismatched messages."""

import pytest

from repro.orb import World, giop
from repro.orb.cdr import TAG_SEQUENCE, CDRDecoder, decode_values, encode_values
from repro.orb.exceptions import MARSHAL
from repro.orb.modules.base import decode_envelope, encode_envelope
from repro.orb.servant import Servant


class Echo(Servant):
    _repo_id = "IDL:adv/Echo:1.0"

    def echo(self, text):
        return text


@pytest.fixture
def deployment():
    world = World()
    world.lan(["client", "server"], latency=0.001)
    ior = world.orb("server").poa.activate_object(Echo())
    return world, ior


class TestMalformedEnvelopes:
    def test_envelope_magic_required(self):
        with pytest.raises(MARSHAL):
            decode_envelope(b"GIOP....")

    def test_truncated_envelope(self):
        wire = encode_envelope("compression", {"codec": "lz"}, b"payload")
        with pytest.raises(MARSHAL):
            decode_envelope(wire[: len(wire) // 2])

    def test_non_dict_params_rejected(self):
        from repro.orb.cdr import CDREncoder
        from repro.orb.modules.base import ENVELOPE_MAGIC

        encoder = CDREncoder()
        for byte in ENVELOPE_MAGIC:
            encoder.write_octet(byte)
        encoder.write_string("compression")
        encoder.write_any([1, 2, 3])  # not a map
        encoder.write_octets(b"x")
        with pytest.raises(MARSHAL):
            decode_envelope(encoder.getvalue())

    def test_reply_wrapped_by_wrong_module_rejected(self, deployment):
        world, ior = deployment
        client = world.orb("client")
        server = world.orb("server")
        client.qos_transport.assign(ior, "compression")

        # Sabotage the server: its replies come back wrapped as "crypto".
        original = server.handle_incoming

        def relabel(wire, at_time):
            reply, finish = original(wire, at_time)
            name, params, payload = decode_envelope(reply)
            return encode_envelope("crypto", params, payload), finish

        server.handle_incoming = relabel
        from tests.orb.conftest import EchoStub

        with pytest.raises(MARSHAL):
            EchoStub(client, ior).echo("x" * 500)


class TestMalformedGIOP:
    """A body the server cannot read is answered with MARSHAL, as a bad
    envelope is, never raised into the transport that carried it."""

    def test_truncated_request_rejected_at_server(self, deployment):
        world, ior = deployment
        from repro.orb.request import Request

        wire = giop.encode_request(Request(ior, "echo", ("hello",)))
        reply_wire, _ = world.orb("server").handle_incoming(wire[:-10], 0.0)
        reply = giop.decode_reply(reply_wire)
        assert type(reply.exception) is MARSHAL
        assert reply.request_id == 0

    def test_garbage_bytes_rejected(self, deployment):
        world, _ = deployment
        reply_wire, _ = world.orb("server").handle_incoming(b"\x00" * 64, 0.0)
        reply = giop.decode_reply(reply_wire)
        assert type(reply.exception) is MARSHAL
        assert reply.request_id == 0

    def test_wrong_version_rejected(self, deployment):
        world, ior = deployment
        from repro.orb.request import Request

        wire = bytearray(giop.encode_request(Request(ior, "echo", ("x",))))
        wire[4] = 9  # bogus major version
        with pytest.raises(MARSHAL):
            giop.decode_request(bytes(wire))

    def test_reply_as_request_rejected(self):
        wire = giop.encode_reply(1, "result")
        with pytest.raises(MARSHAL):
            giop.decode_request(wire)

    def test_unknown_reply_status(self):
        from repro.orb.cdr import CDREncoder

        encoder = CDREncoder()
        for byte in b"GIOP":
            encoder.write_octet(byte)
        encoder.write_octet(1)
        encoder.write_octet(2)
        encoder.write_octet(giop.MSG_REPLY)
        encoder.write_ulong(1)
        encoder.write_any({})
        encoder.write_octet(99)  # bogus status
        with pytest.raises(MARSHAL):
            giop.decode_reply(encoder.getvalue())


class TestDeepNesting:
    """Nesting past the interpreter's stack is a MARSHAL, not a bare
    RecursionError that would escape a server handler untyped."""

    def test_encoding_a_deeply_nested_value(self):
        value = []
        for _ in range(5000):
            value = [value]
        with pytest.raises(MARSHAL, match="nested too deeply"):
            encode_values(value)

    def test_decoding_deeply_nested_sequence_headers(self):
        # count=1, then 20 000 x (TAG_SEQUENCE, 3 pad, length=1): ~160 KB.
        header = bytes((TAG_SEQUENCE, 0, 0, 0, 0, 0, 0, 1))
        frame = b"\x00\x00\x00\x01" + header * 20_000
        with pytest.raises(MARSHAL, match="nested too deeply"):
            decode_values(frame)


class TestTrailingBytes:
    """Bytes after a message's last field are MARSHAL, on the first
    (field-by-field) parse and after the decoder has learned the shape."""

    JUNK = b"trailing junk"

    def test_envelope(self):
        wire = encode_envelope("compression", {"codec": "lz"}, b"abc")
        with pytest.raises(MARSHAL, match="trailing"):
            decode_envelope(wire + self.JUNK)
        assert decode_envelope(wire)[2] == b"abc"  # learns the header
        assert decode_envelope(wire)[2] == b"abc"  # a header-table hit
        with pytest.raises(MARSHAL, match="trailing"):
            decode_envelope(wire + self.JUNK)

    def test_request(self):
        from repro.orb.ior import IOR, IIOPProfile
        from repro.orb.request import Request

        target = IOR("IDL:adv/Echo:1.0", IIOPProfile("server", 683, "obj-1"))
        wire = giop.encode_request(Request(target, "echo", ("x",), request_id=3))
        for _ in range(3):  # a cold parse, then preamble and span replays
            with pytest.raises(MARSHAL, match="trailing"):
                giop.decode_request(wire + self.JUNK)
            assert tuple(giop.decode_request(wire).args) == ("x",)
        assert giop._request_decode_cache.hits  # the replay path ran

    @pytest.mark.parametrize(
        "reply",
        [
            {"result": "x"},
            {"exception": MARSHAL("bad")},
        ],
        ids=["result", "system-exception"],
    )
    def test_reply(self, reply):
        wire = giop.encode_reply(9, **reply)
        for _ in range(3):
            with pytest.raises(MARSHAL, match="trailing"):
                giop.decode_reply(wire + self.JUNK)
            assert giop.decode_reply(wire).request_id == 9
        assert giop._reply_decode_cache.hits  # the replay path ran

    def test_locate_request(self):
        wire = giop.encode_locate_request(3, "obj")
        with pytest.raises(MARSHAL, match="trailing"):
            giop.decode_locate_request(wire + self.JUNK)
        assert giop.decode_locate_request(wire) == (3, "obj")

    def test_locate_reply(self):
        wire = giop.encode_locate_reply(3, 1)
        with pytest.raises(MARSHAL, match="trailing"):
            giop.decode_locate_reply(wire + self.JUNK)
        assert giop.decode_locate_reply(wire) == (3, 1)
