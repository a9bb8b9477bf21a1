"""Tests for the GIOP message protocol."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.orb import World, giop
from repro.orb.cdr import CDREncoder
from repro.orb.exceptions import (
    BAD_QOS,
    COMM_FAILURE,
    MARSHAL,
    SystemException,
    UserException,
    register_user_exception,
)
from repro.orb.ior import IOR, IIOPProfile
from repro.orb.request import COMMAND, Request
from repro.orb.servant import Servant
from repro.orb.stub import Stub
from repro.perf import COUNTERS


@pytest.fixture
def target():
    return IOR("IDL:demo/Echo:1.0", IIOPProfile("server", 683, "obj-1"))


class TestRequestMessages:
    def test_request_roundtrip(self, target):
        request = Request(target, "echo", ("hello", 42), service_contexts={"qos": "c1"})
        decoded = giop.decode_request(giop.encode_request(request))
        assert decoded.operation == "echo"
        assert decoded.args == ("hello", 42)
        assert decoded.service_contexts == {"qos": "c1"}
        assert decoded.kind == "request"
        assert decoded.command_target is None
        assert decoded.request_id == request.request_id
        assert decoded.target == target

    def test_command_roundtrip(self, target):
        request = Request(
            target, "set_codec", ("b", "rle"), kind=COMMAND, command_target="compression"
        )
        decoded = giop.decode_request(giop.encode_request(request))
        assert decoded.is_command
        assert decoded.command_target == "compression"

    def test_no_args_roundtrip(self, target):
        request = Request(target, "ping")
        decoded = giop.decode_request(giop.encode_request(request))
        assert decoded.args == ()

    def test_bad_magic_rejected(self, target):
        wire = bytearray(giop.encode_request(Request(target, "x")))
        wire[0] = ord("X")
        with pytest.raises(MARSHAL):
            giop.decode_request(bytes(wire))

    def test_reply_is_not_a_request(self, target):
        wire = giop.encode_reply(1, "ok")
        with pytest.raises(MARSHAL):
            giop.decode_request(wire)


class TestReplyMessages:
    def test_result_roundtrip(self):
        reply = giop.decode_reply(giop.encode_reply(7, {"value": [1, 2]}))
        assert reply.request_id == 7
        assert reply.value() == {"value": [1, 2]}

    def test_none_result(self):
        reply = giop.decode_reply(giop.encode_reply(1, None))
        assert reply.value() is None

    def test_system_exception_rethrown(self):
        wire = giop.encode_reply(3, exception=COMM_FAILURE("link down", minor=2))
        reply = giop.decode_reply(wire)
        with pytest.raises(COMM_FAILURE) as excinfo:
            reply.value()
        assert "link down" in str(excinfo.value)
        assert excinfo.value.minor == 2

    def test_bad_qos_crosses_wire(self):
        wire = giop.encode_reply(3, exception=BAD_QOS("not negotiated"))
        with pytest.raises(BAD_QOS):
            giop.decode_reply(wire).value()

    def test_user_exception_roundtrip(self):
        @register_user_exception
        class Overdrawn(UserException):
            repo_id = "IDL:test/Overdrawn:1.0"

        wire = giop.encode_reply(4, exception=Overdrawn("no funds", balance=-5))
        reply = giop.decode_reply(wire)
        with pytest.raises(Overdrawn) as excinfo:
            reply.value()
        assert excinfo.value.balance == -5

    def test_unregistered_user_exception_becomes_generic(self):
        class Unknown(UserException):
            repo_id = "IDL:test/Unknown:1.0"

        wire = giop.encode_reply(5, exception=Unknown("mystery", code=9))
        reply = giop.decode_reply(wire)
        with pytest.raises(UserException) as excinfo:
            reply.value()
        assert excinfo.value.code == 9
        assert excinfo.value.repo_id == "IDL:test/Unknown:1.0"

    def test_non_corba_exception_becomes_system_exception(self):
        wire = giop.encode_reply(6, exception=ValueError("oops"))
        reply = giop.decode_reply(wire)
        with pytest.raises(SystemException) as excinfo:
            reply.value()
        assert "ValueError" in str(excinfo.value)

    def test_service_contexts_roundtrip(self):
        wire = giop.encode_reply(8, "r", service_contexts={"measured": 1.5})
        assert giop.decode_reply(wire).service_contexts == {"measured": 1.5}

    @pytest.mark.parametrize("contexts", [None, {}])
    def test_empty_contexts_are_the_generic_encoding(self, contexts):
        # encode_reply appends a precomputed empty map; it must be the
        # bytes the generic writer produces at the same offset.
        encoder = CDREncoder()
        encoder.write_raw(giop._REPLY_PREFIX + (9).to_bytes(4, "big"))
        encoder.write_any({})
        encoder.write_octet(giop.NO_EXCEPTION)
        encoder.write_any("r")
        assert giop.encode_reply(9, "r", service_contexts=contexts) == encoder.getvalue()


class TestAnySpanCaches:
    """The args/result span replay caches must be invisible: identical
    bytes on the wire, fresh mutable values on every decode."""

    def setup_method(self):
        giop.clear_caches()

    def _target(self):
        return IOR("IDL:demo/Echo:1.0", IIOPProfile("server", 683, "obj-1"))

    def test_encode_replay_is_byte_identical(self):
        payload = {"s": "x", "n": [1.5, -0.0], "m": {"deep": True}}
        request = Request(self._target(), "echo", (payload,))
        first = giop.encode_request(request)
        # Same id, same args: the second encode replays the cached span.
        second = giop.encode_request(
            Request(self._target(), "echo", (payload,),
                    request_id=request.request_id)
        )
        assert first == second

    def test_float_bit_patterns_do_not_collide(self):
        target = self._target()
        wire_pos = giop.encode_request(Request(target, "op", (0.0,)))
        wire_neg = giop.encode_request(Request(target, "op", (-0.0,)))
        # 0.0 == -0.0 in Python, but their encodings differ; the cache
        # keys by bit pattern so each decodes back to its own sign.
        assert wire_pos[:-8] != wire_neg[:-8] or wire_pos != wire_neg
        import math

        assert math.copysign(1.0, giop.decode_request(wire_neg).args[0]) < 0

    def test_decoded_args_are_mutation_isolated(self):
        payload = {"counts": [1, 2], "meta": {"tag": "a"}}
        request = Request(self._target(), "echo", (payload,))
        wire = giop.encode_request(request)
        # Decode twice (second run hits the preamble + span caches) and
        # mutate the first result in place.
        giop.decode_request(wire)  # populate
        first = giop.decode_request(wire)
        first.args[0]["counts"].append(99)
        first.args[0]["meta"]["tag"] = "mutated"
        second = giop.decode_request(wire)
        assert second.args[0] == payload

    def test_decoded_result_is_mutation_isolated(self):
        wire = giop.encode_reply(7, result={"values": [1, 2, 3]})
        giop.decode_reply(wire)  # populate
        first = giop.decode_reply(wire)
        first.result["values"].append(4)
        assert giop.decode_reply(wire).result == {"values": [1, 2, 3]}

    def test_none_result_hits_span_cache(self):
        from repro.perf import COUNTERS

        wire = giop.encode_reply(9, result=None)
        giop.decode_reply(wire)
        before = COUNTERS.any_span_hits
        assert giop.decode_reply(wire).result is None
        assert COUNTERS.any_span_hits == before + 1

    def test_unfreezable_args_bypass_the_cache(self):
        payload = bytearray(b"mutable")  # _freeze rejects bytearray
        request = Request(self._target(), "echo", (payload,))
        wire = giop.encode_request(request)
        assert giop.decode_request(wire).args == (b"mutable",)

    #: Payloads that repeat; -0.0 and 0.0 are equal but encode apart.
    _REPEATED = (
        {"vals": [1, 2], "meta": {"tag": "a"}},
        {"vals": [0.0], "meta": {"tag": "b"}},
        {"vals": [-0.0], "meta": {"tag": "b"}},
        "plain",
    )

    @settings(max_examples=40, deadline=None)
    @given(
        picks=st.lists(
            st.one_of(st.none(), st.sampled_from(range(len(_REPEATED)))),
            max_size=160,
        ),
        # Operation names of different lengths shift the args' alignment.
        operations=st.lists(
            st.sampled_from(["e", "echo", "op3"]), min_size=1, max_size=3
        ),
    )
    # Always covered: repeats arriving while the caches are bypassed.
    @example(picks=[None] * 40 + [0, 1, 2, 0, 1, 2], operations=["echo"])
    def test_any_interleaving_matches_fresh_caches(self, picks, operations):
        # None is a payload never seen before; an index repeats one.
        # Long runs of None put the caches into their bypass windows.
        target = self._target()
        calls = []
        for number, (pick, operation) in enumerate(
            zip(picks, itertools.cycle(operations)), start=1
        ):
            payload = (
                {"vals": [number, number / 4], "meta": {"tag": str(number)}}
                if pick is None
                else self._REPEATED[pick]
            )
            calls.append(
                (Request(target, operation, (payload,), request_id=number), payload)
            )
        reference = []
        for request, payload in calls:
            giop.clear_caches()
            reference.append(
                (giop.encode_request(request),
                 giop.encode_reply(request.request_id, payload))
            )
        giop.clear_caches()
        for (request, payload), (request_wire, reply_wire) in zip(calls, reference):
            assert giop.encode_request(request) == request_wire
            assert giop.encode_reply(request.request_id, payload) == reply_wire
            # repr tells -0.0 from 0.0, which == does not.
            args = giop.decode_request(request_wire).args
            result = giop.decode_reply(reply_wire).result
            assert repr(args[0]) == repr(result) == repr(payload)
            if type(payload) is dict:
                args[0]["vals"].append(99)
                result["meta"]["tag"] = "mutated"
                assert repr(giop.decode_request(request_wire).args[0]) == repr(payload)
                assert repr(giop.decode_reply(reply_wire).result) == repr(payload)


class _Echo(Servant):
    _repo_id = "IDL:test/GiopEcho:1.0"

    def echo(self, value):
        return value


class _EchoStub(Stub):
    def echo(self, value):
        return self._call("echo", value)


class TestSpanAdmission:
    """Counts, not timings: a change that builds a span key on every
    lookup again, or loses a span from the hit/miss counters, fails
    here and not only in the benchmark."""

    CALLS = 1200
    #: (doubles, blob bytes) per call, 8:3:1 — the shape of the
    #: benchmark's ``echo_cold`` payloads (≈300 B, ≈2 KiB, ≈16 KiB).
    LADDER = ((4, 128),) * 8 + ((56, 1024),) * 3 + ((500, 8192),)

    @staticmethod
    def _stub():
        world = World()
        world.lan(["client", "server"], latency=0.001)
        ior = world.orb("server").poa.activate_object(_Echo())
        return _EchoStub(world.orb("client"), ior)

    @staticmethod
    def _payload(rng, doubles, blob):
        return {
            "symbol": "".join(rng.choices("ABCDEFGHIJKLMNOPQRSTUVWXYZ", k=4)),
            "prices": [100.0 + rng.randrange(6400) / 64.0 for _ in range(doubles)],
            "blob": rng.randbytes(blob),
            "nested": {"depth": rng.randrange(1, 100), "flag": rng.random() < 0.5},
        }

    def _unique(self, rng, count):
        return [
            self._payload(rng, *self.LADDER[index % len(self.LADDER)])
            for index in range(count)
        ]

    def _echo_all(self, payloads):
        stub = self._stub()
        COUNTERS.reset()
        for payload in payloads:
            assert stub.echo(payload) == payload

    def test_unique_payloads_build_few_keys(self, monkeypatch):
        freezes = 0
        depth = 0
        freeze = giop._freeze

        def counting(value):
            # _freeze recurses through the module global: count only
            # the outermost call, one per key built.  Every request
            # preamble also freezes its (empty) context map, and that
            # key replays: count the payload keys.
            nonlocal freezes, depth
            freezes += depth == 0 and value != {}
            depth += 1
            try:
                return freeze(value)
            finally:
                depth -= 1

        monkeypatch.setattr(giop, "_freeze", counting)
        self._echo_all(self._unique(random.Random(25), self.CALLS))
        # Two encode caches (args, result): at most one lookup in eight
        # builds a key.
        assert freezes <= 2 * self.CALLS // 8
        # Bypassed, over-limit or probed: every span is one miss.
        assert COUNTERS.any_span_hits == 0
        assert COUNTERS.any_span_misses == 4 * self.CALLS

    def test_one_repeated_payload_replays_every_span(self):
        payload = self._payload(random.Random(25), *self.LADDER[0])
        self._echo_all([payload] * self.CALLS)
        # Args and result, each encoded and decoded: only first
        # sightings miss.
        assert COUNTERS.any_span_hits >= 4 * self.CALLS - 8
        assert COUNTERS.any_span_hits + COUNTERS.any_span_misses == 4 * self.CALLS

    def test_a_payload_repeating_after_a_unique_run_replays_within_18(self):
        rng = random.Random(25)
        hot = self._payload(rng, *self.LADDER[0])
        self._echo_all(self._unique(rng, 600) + [hot] * 400)
        # Each of the four caches misses at most 17 of its 400 hot
        # lookups: the rest of a bypass, the populating miss, one more
        # bypass.
        assert COUNTERS.any_span_hits >= 4 * (400 - 17)

    @pytest.mark.parametrize("period", [2, 3, 8])
    def test_a_payload_recurring_once_per_period_always_replays(self, period):
        # One hot call, then period - 1 unique ones: no streak reaches
        # eight misses, so nothing is bypassed and only first sightings
        # miss.  The very first request takes the slow path that learns
        # the preamble and skips the argument decode cache, so a
        # warm-up call lets that cache see the hot payload too.
        rng = random.Random(25)
        hot = self._payload(rng, *self.LADDER[0])
        rounds = 1200 // period
        calls = [hot]
        for _ in range(rounds):
            calls += [hot] + self._unique(rng, period - 1)
        self._echo_all(calls)
        assert COUNTERS.any_span_hits == 4 * rounds - 1

    def test_an_over_limit_tail_is_not_probed(self):
        wire = giop.encode_reply(1, b"x" * (2 * giop._SPAN_LIMIT))
        for _ in range(3):
            assert giop.decode_reply(wire).result == b"x" * (2 * giop._SPAN_LIMIT)
        cache = giop._result_decode_cache
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
        assert cache.admit()  # and it opened no bypass window

    def test_a_preamble_decode_counts_one_miss_however_many_lengths(self, target):
        # Operation names 4 characters apart: four preamble lengths to
        # probe.  Seven requests with a unique context then miss at
        # every length, but count seven misses, not 28 or more, so no
        # bypass opens and a known preamble still replays.
        known = [Request(target, "o" * size) for size in (1, 5, 9, 13)]
        for request in known:
            wire = giop.encode_request(request)
            giop.decode_request(wire)  # learns the preamble and its length
            giop.decode_request(wire)  # replays it: no streak carries over
        assert len(giop._request_decode_lengths) == 4
        for number in range(7):
            unique = Request(target, "o", service_contexts={"deadline": number / 7})
            giop.decode_request(giop.encode_request(unique))
        cache = giop._request_decode_cache
        hits = cache.hits
        giop.decode_request(giop.encode_request(known[0]))
        assert cache.hits == hits + 1  # the replayed preamble
