"""ORB core micro-benchmarks (wall clock).

Regression guards for the hot paths every experiment exercises:
CDR marshalling, GIOP round-trips, IOR parsing, and the full in-memory
echo invocation.  These are the numbers to watch when changing the
wire formats or dispatch machinery.
"""

import pytest

from repro.orb import World, giop
from repro.orb.cdr import CDRDecoder, CDREncoder
from repro.orb.ior import IOR, IIOPProfile, QOS_TAG, TaggedComponent
from repro.orb.request import Request
from repro.orb.servant import Servant
from repro.orb.stub import Stub

PAYLOAD = {
    "symbol": "ACME",
    "prices": [101.25, 101.5, 101.75, 102.0],
    "blob": b"\x00\x01" * 64,
    "nested": {"depth": 2, "flag": True},
}


class Echo(Servant):
    _repo_id = "IDL:micro/Echo:1.0"

    def echo(self, value):
        return value


class EchoStub(Stub):
    def echo(self, value):
        return self._call("echo", value)


def test_bench_micro_cdr_encode(benchmark):
    def encode():
        encoder = CDREncoder()
        encoder.write_any(PAYLOAD)
        return encoder.getvalue()

    wire = benchmark(encode)
    assert len(wire) > 100


def test_bench_micro_cdr_decode(benchmark):
    encoder = CDREncoder()
    encoder.write_any(PAYLOAD)
    wire = encoder.getvalue()
    value = benchmark(lambda: CDRDecoder(wire).read_any())
    assert value["symbol"] == "ACME"


def test_bench_micro_giop_request_roundtrip(benchmark):
    target = IOR("IDL:micro/Echo:1.0", IIOPProfile("host", 683, "key"))

    def roundtrip():
        request = Request(target, "echo", (PAYLOAD,))
        return giop.decode_request(giop.encode_request(request))

    decoded = benchmark(roundtrip)
    assert decoded.operation == "echo"


def test_bench_micro_ior_parse(benchmark):
    ior = IOR(
        "IDL:micro/Echo:1.0",
        IIOPProfile("server.example", 683, "obj-12345"),
        [TaggedComponent(QOS_TAG, {"characteristics": ["Compression"]})],
    )
    text = ior.to_string()
    parsed = benchmark(IOR.from_string, text)
    assert parsed == ior


def test_bench_micro_end_to_end_echo(benchmark):
    world = World()
    world.lan(["client", "server"], latency=0.001)
    ior = world.orb("server").poa.activate_object(Echo())
    stub = EchoStub(world.orb("client"), ior)
    result = benchmark(stub.echo, PAYLOAD)
    assert result == PAYLOAD


def test_bench_micro_qos_module_path(benchmark):
    world = World()
    world.lan(["client", "server"], latency=0.001)
    ior = world.orb("server").poa.activate_object(
        Echo(),
        components=[TaggedComponent(QOS_TAG, {"characteristics": ["x"]})],
    )
    world.orb("client").qos_transport.assign(ior, "compression")
    stub = EchoStub(world.orb("client"), ior)
    result = benchmark(stub.echo, PAYLOAD)
    assert result == PAYLOAD
