"""The two replay points of a QoS-bound call: the module-envelope header
table (``modules.base``) and the request-head replay behind a
whole-preamble miss (``giop``).  Both must be invisible on the wire:
the same bytes as the field-by-field codec, the same ``MARSHAL`` on
hostile input, fresh mutable values on every decode, bounded tables.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.mediator import MediatorChain
from repro.orb import QOS_TAG, TaggedComponent, World, giop
from repro.orb import orb as orb_module
from repro.orb.cdr import CDREncoder
from repro.orb.exceptions import MARSHAL
from repro.orb.ior import IOR, IIOPProfile
from repro.orb.modules import base
from repro.orb.modules.base import ENVELOPE_MAGIC, decode_envelope, encode_envelope
from repro.orb.request import COMMAND, Request
from repro.orb.servant import Servant
from repro.orb.stub import Stub
from repro.reliability import ReliabilityMediator, ReliabilityPolicy


def _generic_envelope(module_name, params, payload):
    """The field-by-field envelope encoding, no table."""
    encoder = CDREncoder()
    encoder.write_raw(ENVELOPE_MAGIC)
    encoder.write_string(module_name)
    encoder.write_any(params)
    encoder.write_octets(payload)
    return encoder.getvalue()


def _target(key="obj-1"):
    return IOR("IDL:demo/Echo:1.0", IIOPProfile("server", 683, key))


# -- the envelope header table -------------------------------------------

#: Param values: ``str`` ones are stored (drawn twice as often, so
#: many maps are all-``str``), the rest must bypass the table.
param_values = st.one_of(
    st.text(max_size=6),
    st.text(max_size=6),
    st.integers(min_value=-3, max_value=3),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.text(max_size=3), max_size=2),
)
#: Small pools so that envelopes repeat and the table replays.
param_maps = st.dictionaries(
    st.sampled_from(["codec", "requested", "cipher", "key_id"]),
    param_values,
    max_size=3,
)


class TestEnvelopeHeaderTable:
    @settings(max_examples=60, deadline=None)
    @given(
        envelopes=st.lists(
            st.tuples(
                st.sampled_from(["compression", "crypto", "c", "ünï"]),
                st.sampled_from(range(4)),
                st.binary(max_size=24),
            ),
            max_size=60,
        ),
        pool=st.lists(param_maps, min_size=4, max_size=4),
    )
    @example(
        envelopes=[("compression", 0, b"x")] * 12 + [("crypto", 1, b"")] * 3,
        pool=[{"codec": "lz"}, {"cipher": "rot13", "key_id": "k"}, {}, {"a": 1}],
    )
    def test_any_sequence_matches_the_generic_codec(self, envelopes, pool):
        base.clear_envelope_tables()
        for module_name, pick, payload in envelopes:
            params = pool[pick]
            wire = encode_envelope(module_name, params, payload)
            assert wire == _generic_envelope(module_name, params, payload)
            name, decoded, body = decode_envelope(wire)
            assert (name, body) == (module_name, payload)
            assert repr(decoded) == repr(
                {key: list(value) if isinstance(value, list) else value
                 for key, value in params.items()}
            )

    @settings(max_examples=40, deadline=None)
    @given(
        module_name=st.sampled_from(["compression", "crypto"]),
        params=st.dictionaries(
            st.sampled_from(["codec", "requested", "key_id"]),
            st.text(max_size=6),
            max_size=3,
        ),
        payload=st.binary(max_size=12),
    )
    def test_every_truncation_of_a_table_hit_raises_marshal(
        self, module_name, params, payload
    ):
        base.clear_envelope_tables()
        wire = encode_envelope(module_name, params, payload)
        decode_envelope(wire)  # learns the header
        hits = base._header_decode_cache.hits
        assert decode_envelope(wire)[2] == payload
        assert base._header_decode_cache.hits == hits + 1
        for cut in range(len(wire) - 1, -1, -1):
            with pytest.raises(MARSHAL):
                decode_envelope(wire[:cut])

    def test_an_overrunning_length_word_raises_marshal(self):
        wire = encode_envelope("compression", {"codec": "lz"}, b"payload")
        decode_envelope(wire)
        header = len(wire) - 4 - len(b"payload")
        forged = wire[:header] + (1 << 20).to_bytes(4, "big") + b"payload"
        with pytest.raises(MARSHAL):
            decode_envelope(forged)

    def test_decoded_params_are_never_shared(self):
        wire = encode_envelope("compression", {"codec": "lz", "requested": "lz"}, b"x")
        first = decode_envelope(wire)[1]
        second = decode_envelope(wire)[1]  # a table hit
        assert first is not second
        second["codec"] = "mutated"
        third = decode_envelope(wire)[1]
        assert third == {"codec": "lz", "requested": "lz"}
        assert third is not first and third is not second

    def test_distinct_param_maps_stay_within_the_bound(self):
        for number in range(10_000):
            params = {"codec": f"c{number}", "requested": "x" * (number % 40)}
            wire = encode_envelope("compression", params, b"p")
            assert decode_envelope(wire) == ("compression", params, b"p")
        assert len(base._header_encode_cache) <= base._header_encode_cache.maxsize
        assert len(base._header_decode_cache) <= base._header_decode_cache.maxsize
        assert len(base._header_lengths) <= base._HEADER_LENGTH_LIMIT


# -- the request-head replay ---------------------------------------------

#: Per-call context values, the awkward floats included.
context_values = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, -0.0, math.inf, -math.inf]),
    st.text(max_size=6),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.dictionaries(
        st.text(max_size=3),
        st.one_of(st.floats(), st.text(max_size=3), st.booleans()),
        max_size=2,
    ),
)

#: Contexts that repeat call after call (the whole preamble replays).
_CONSTANT = ({}, {"maqs.sched.class": "gold"}, {"qos": "c1", "n": 3})

#: (operation, kind, command target, response expected): heads that
#: differ in one field only, and in length, so the args' alignment
#: shifts too.
_HEADS = (
    ("e", "request", None, True),
    ("store", "request", None, True),
    ("store", "request", None, False),
    ("store", COMMAND, "compression", True),
    ("store", COMMAND, "crypto", True),
)


class TestHeadReplay:
    @settings(max_examples=40, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(range(len(_CONSTANT))),
                    st.dictionaries(
                        st.sampled_from(["maqs.deadline", "maqs.trace"]),
                        context_values,
                        min_size=1,
                        max_size=2,
                    ),
                ),
                st.sampled_from(range(len(_HEADS))),
                st.sampled_from(["doc", ("a", 1.5)]),
            ),
            max_size=120,
        )
    )
    # Always covered: per-call contexts long enough to open bypass
    # windows in every preamble cache, then constant ones again.
    @example(
        calls=[({"maqs.deadline": number / 7}, 1, "doc") for number in range(40)]
        + [(1, 1, "doc"), (0, 0, "doc"), (1, 1, "doc")] * 4
    )
    def test_any_interleaving_matches_fresh_caches(self, calls):
        requests = []
        for number, (contexts, head, arg) in enumerate(calls, start=1):
            operation, kind, command_target, expected = _HEADS[head]
            if type(contexts) is int:
                contexts = _CONSTANT[contexts]
            requests.append(
                Request(
                    _target(),
                    operation,
                    (arg,),
                    kind=kind,
                    command_target=command_target,
                    service_contexts=contexts,
                    response_expected=expected,
                    request_id=number,
                )
            )
        reference = []
        for request in requests:
            giop.clear_caches()
            reference.append(giop.encode_request(request))
        giop.clear_caches()
        for request, wire in zip(requests, reference):
            assert giop.encode_request(request) == wire
            decoded = giop.decode_request(wire)
            assert decoded.target == request.target
            assert (
                decoded.operation,
                decoded.kind,
                decoded.command_target,
                decoded.response_expected,
                decoded.request_id,
            ) == (
                request.operation,
                request.kind,
                request.command_target,
                request.response_expected,
                request.request_id,
            )
            # repr tells NaN, -0.0 and 0.0 apart, which == does not.
            assert repr(decoded.service_contexts) == repr(request.service_contexts)
            assert repr(decoded.args) == repr(
                tuple(list(arg) if type(arg) is tuple else arg for arg in request.args)
            )

    def test_a_per_call_context_replays_the_head_on_both_ends(self):
        for number in range(20):
            request = Request(
                _target(), "store", ("doc",),
                service_contexts={"maqs.deadline": 1.0 + number / 7},
            )
            decoded = giop.decode_request(giop.encode_request(request))
            assert decoded.service_contexts == request.service_contexts
        assert giop._request_head_cache.hits == 19
        assert giop._request_head_decode_cache.hits == 19
        # The whole-preamble caches never hit, and no head replay
        # counts as one of theirs.
        assert giop._request_preamble_cache.hits == 0
        assert giop._request_decode_cache.hits == 0

    def test_a_truncated_request_whose_head_replays_raises_marshal(self):
        def deadline(seconds):
            return Request(
                _target(), "store", ("doc", 7),
                service_contexts={"maqs.deadline": seconds},
                request_id=5,
            )

        giop.decode_request(giop.encode_request(deadline(0.5)))  # learns the head
        wire = giop.encode_request(deadline(0.75))
        hits = giop._request_head_decode_cache.hits
        for cut in range(len(wire) - 1, -1, -1):
            with pytest.raises(MARSHAL):
                giop.decode_request(wire[:cut])
        assert giop._request_head_decode_cache.hits > hits
        assert giop.decode_request(wire).service_contexts == {"maqs.deadline": 0.75}


# -- a count-based guard on a qos_bound-shaped call ----------------------


class _Archive(Servant):
    _repo_id = "IDL:test/Archive:1.0"

    def __init__(self):
        self.files = {}

    def store(self, path, content):
        self.files[path] = content


class _ArchiveStub(Stub):
    def store(self, path, content):
        return self._call("store", path, content)


class TestQosBoundReplays:
    """Counts, not timings, in the style of ``TestSpanAdmission``: an
    archive ``store`` through a reliability mediator with a per-call
    deadline, the compression module and the identity codec.  After the
    first call every envelope header is a table hit and every request
    head replays, on both ends."""

    CALLS = 200

    def test_every_header_and_head_replays_after_the_first_call(self, monkeypatch):
        world = World()
        world.lan(["client", "server"], latency=0.001)
        servant = _Archive()
        ior = world.orb("server").poa.activate_object(
            servant,
            components=[TaggedComponent(QOS_TAG, {"characteristics": ["compression"]})],
        )
        client = world.orb("client")
        binding = client.qos_transport.assign(ior, "compression")
        client.qos_transport.module("compression").set_codec(binding, "identity")
        stub = _ArchiveStub(client, ior)
        reliability = ReliabilityMediator(ReliabilityPolicy(deadline=1.0))
        MediatorChain(reliability).install(stub)

        calls = {"seal": 0, "open": 0, "encode": 0, "decode": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        sealed = counting("seal", encode_envelope)
        opened = counting("open", decode_envelope)
        for module in (base, orb_module):
            monkeypatch.setattr(module, "encode_envelope", sealed)
            monkeypatch.setattr(module, "decode_envelope", opened)
        monkeypatch.setattr(giop, "encode_request", counting("encode", giop.encode_request))
        monkeypatch.setattr(giop, "decode_request", counting("decode", giop.decode_request))

        for number in range(self.CALLS):
            assert stub.store(f"doc-{number}", "x" * 256) is None
        assert len(servant.files) == self.CALLS
        assert reliability.retries_used == 0

        # A request and a reply envelope per call, one of each parsed.
        assert calls == {
            "seal": 2 * self.CALLS,
            "open": 2 * self.CALLS,
            "encode": self.CALLS,
            "decode": self.CALLS,
        }
        # The first request learns its header on each end; the reply
        # carries the same params, so it already replays.
        assert base._header_encode_cache.hits == 2 * self.CALLS - 1
        assert base._header_decode_cache.hits == 2 * self.CALLS - 1
        # Every deadline differs: the whole preamble never replays, its
        # head does after the first call.
        assert giop._request_head_cache.hits == self.CALLS - 1
        assert giop._request_head_decode_cache.hits == self.CALLS - 1
        assert giop._request_preamble_cache.hits == 0
        assert giop._request_decode_cache.hits == 0


def test_the_head_tables_reset_with_the_preamble_caches():
    for number in range(3):
        giop.decode_request(
            giop.encode_request(
                Request(_target(), "op", service_contexts={"d": float(number)})
            )
        )
    assert len(giop._request_head_cache) == len(giop._request_head_decode_cache) == 1
    giop.clear_caches()
    assert len(giop._request_head_cache) == len(giop._request_head_decode_cache) == 0
    assert giop._request_head_lengths == []
    encode_envelope("compression", {"codec": "lz"}, b"x")
    assert len(base._header_encode_cache) == 1
    base.clear_envelope_tables()
    assert len(base._header_encode_cache) == len(base._header_decode_cache) == 0
    assert base._header_lengths == []
