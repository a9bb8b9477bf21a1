"""The declared-field reader: every malformed spec is a ``SpecError``."""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.chaos import ROWS
from repro.scenario.spec import (
    ClusterSpec, CohortSpec, FluidSpec, GroupSpec, LanSpec, LinkSpec,
    ModuleSpec, ReliabilitySpec, SchedSpec, SLOSpec, Spec, SpecError,
    TopologySection, TrafficSpec,
)

BASE = {
    "name": "reader",
    "duration": 1.0,
    "topology": {"lan": {"hosts": ["client", "s1", "s2"]}},
    "group": {"hosts": ["s1", "s2"]},
    "traffic": {"sources": ["client"]},
}


def at(path, value):
    """``BASE`` with the value at ``path`` (a tuple of keys) replaced."""
    data = copy.deepcopy(BASE)
    target = data
    for key in path[:-1]:
        target = target.setdefault(key, {})
    target[path[-1]] = value
    return data


# Each row was accepted, crashed with a non-SpecError, or named the wrong
# thing before the reader checked every declared field.
MALFORMED = [
    # accepted
    (("sched", "max_depth"), -1, r"sched\.max_depth must be >= 1"),
    (("reliability", "max_retries"), -3, r"reliability\.max_retries must be >= 0"),
    (("reliability", "breaker_threshold"), 0, r"breaker_threshold must be >= 1"),
    (("traffic", "onoff_sources"), 0, r"traffic\.onoff_sources must be >= 1"),
    (("traffic", "units"), -5, r"traffic\.units must be >= 0"),
    (("seed",), 1.7, r"spec\.seed must be an integer"),
    (("reliability", "enabled"), "false", r"reliability\.enabled must be true or"),
    (("duration",), math.nan, r"spec\.duration must be positive"),
    (("traffic", "rate"), math.inf, r"traffic\.rate must be positive"),
    (("fluid",), {"src": "client", "dst": "s1", "max_flowlets": 0.5},
     r"fluid\.max_flowlets must be >= 1"),
    (("slo", "min_flows"), 0.5, r"slo\.min_flows must be >= 1"),
    (("modules",), [{"codec": "zstd"}], r"modules\[0\]\.codec must be one of"),
    (("chaos",), [{"kind": "crash", "at": 0.1, "host": "s1", "hots": "s2"}],
     r"chaos\[0\] \(crash\): unknown key\(s\) \['hots'\]"),
    (("chaos",), [{"kind": "crash_wave", "at": 0.1, "hosts": ["s1"], "downtim": 0.1}],
     r"chaos\[0\] \(crash_wave\): unknown key\(s\) \['downtim'\]"),
    (("chaos",), [{"kind": "crash_wave", "at": 0.1, "hosts": ["s1"], "waves": 0}],
     r"chaos\[0\] \(crash_wave\)\.waves must be >= 1"),
    # KeyError, TypeError or AttributeError
    (("topology",), {"hosts": ["a", "b"], "links": [{"a": "a"}]},
     r"topology\.links\[0\]: missing 'b'"),
    (("topology",), {"lan": {"latency": 0.001}}, r"topology\.lan: missing 'hosts'"),
    (("topology", "cohorts"), [{"clients": 2, "gateway": "s1"}],
     r"topology\.cohorts\[0\]: missing 'name'"),
    (("traffic", "classes"), 3, r"traffic\.classes must be a table"),
    (("sched", "classes"), {"gold": 5}, r"sched\.classes\.gold must be a table"),
    (("sched", "classes"), {"std": {"weght": 2.0}},
     r"sched\.classes\.std\.weght is not a QoSClass parameter"),
    # misleading: a string iterated as host names
    (("traffic", "sources"), "client", r"traffic\.sources must be a list of host"),
]


@pytest.mark.parametrize(
    "path, value, match", MALFORMED,
    ids=[".".join(map(str, row[0])) + f"={row[1]!r}" for row in MALFORMED],
)
def test_malformed_value_is_a_spec_error(path, value, match):
    with pytest.raises(SpecError, match=match):
        Spec.from_dict(at(path, value))


def test_spec_must_be_a_table():
    with pytest.raises(SpecError, match="spec must be a table"):
        Spec.from_dict(["not", "a", "table"])


def test_bandwidth_is_read_in_mbps():
    spec = Spec.from_dict(at(("topology", "lan", "bandwidth_mbps"), 8))
    assert {link.bandwidth_bps for link in spec.links} == {8e6}


# -- any JSON-shaped value, anywhere: a Spec or a SpecError ------------------

#: Small integers: a count is a loop bound (cohort clients, crash waves).
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-40, 40) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

#: Where each declared table sits in a spec; every one is filled in so
#: that a bad value reaches cross-field validation too.
SECTIONS = [
    ((), Spec), (("topology",), TopologySection), (("topology", "lan"), LanSpec),
    (("topology", "links", 0), LinkSpec), (("topology", "cohorts", 0), CohortSpec),
    (("topology", "clusters"), ClusterSpec), (("group",), GroupSpec),
    (("sched",), SchedSpec), (("reliability",), ReliabilitySpec),
    (("modules", 0), ModuleSpec), (("traffic",), TrafficSpec),
    (("fluid",), FluidSpec), (("slo",), SLOSpec),
]
FULL = copy.deepcopy(BASE)
FULL["topology"].update(
    links=[{"a": "client", "b": "s1"}],
    cohorts=[{"name": "edge", "clients": 2, "gateway": "s1"}],
    clusters={"clusters": 2, "hosts_per_cluster": 2},
)
FULL.update(
    sched={}, reliability={}, modules=[{"codec": "rle"}],
    fluid={"src": "client", "dst": "s1"}, slo={},
)


def _keys(cls):
    return st.sampled_from(sorted(cls._spec_keys)) | st.text(max_size=6)


@st.composite
def one_bad_value(draw):
    data = copy.deepcopy(FULL)
    path, cls = draw(st.sampled_from(SECTIONS))
    whole = bool(path) and draw(st.booleans())  # the table itself, or one key
    target = data
    for step in path[:-1] if whole else path:
        target = target[step]
    target[path[-1] if whole else draw(_keys(cls))] = draw(JSON)
    return data


@st.composite
def one_bad_chaos_entry(draw):
    data = copy.deepcopy(BASE)
    kind = draw(st.sampled_from(sorted(ROWS)) | st.text(max_size=6))
    entry = {"kind": kind, "at": 0.1}
    if kind in ROWS:
        entry[draw(_keys(ROWS[kind]))] = draw(JSON)
    data["chaos"] = [draw(JSON)] if draw(st.booleans()) else [entry]
    return data


def _loads_or_rejects(data):
    try:
        Spec.from_dict(data)
    except SpecError:
        pass


@given(one_bad_value())
@settings(max_examples=300, deadline=None)
def test_any_value_in_any_section_is_a_spec_or_a_spec_error(data):
    _loads_or_rejects(data)


@given(one_bad_chaos_entry())
@settings(max_examples=200, deadline=None)
def test_any_chaos_entry_is_a_spec_or_a_spec_error(data):
    _loads_or_rejects(data)
