"""The netsim/real conformance suite: identical bytes, identical QoS.

Each scenario runs once over the simulated network and once over
asyncio TCP; the runner asserts outcome records match exactly and the
wire traffic reaching each server is byte-identical (reply streams
canonicalized only where the scheduler embeds clock-derived hint
values — see ``canonical_reply``).
"""

import pytest

from repro.orb.exceptions import OVERLOAD
from repro.rt.conformance import (
    ConformanceFailure,
    canonical_reply,
    compare_runs,
    run_conformance,
    run_scenario_netsim,
    run_scenario_rt,
)
from repro.rt.scenarios import (
    ALL_SCENARIOS,
    BackpressureScenario,
    EchoScenario,
    FailoverScenario,
    WfqOverloadScenario,
    WovenStackScenario,
)


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.name)
def test_scenario_conforms(scenario):
    run_conformance(scenario)


class TestScenarioOutcomes:
    def test_echo_wire_capture_is_byte_identical(self):
        result = run_conformance(EchoScenario())
        sim = result["netsim"]["wires"]["server"]
        rt = result["rt"]["wires"]["server"]
        assert sim["in"] == rt["in"]
        assert sim["out"] == rt["out"]
        assert len(sim["in"]) == 6  # every request, including the oneway

    def test_wfq_overload_sheds_the_same_requests(self):
        result = run_conformance(WfqOverloadScenario())
        for run in (result["netsim"], result["rt"]):
            records = run["records"]
            assert [r["ok"] for r in records].count(True) == 2
            rejected = [r for r in records if not r["ok"]]
            assert len(rejected) == 6
            assert all(r["error"] == "OVERLOAD" for r in rejected)
            assert all(r["unexecuted"] for r in rejected)
            assert all(r["retry_after_hint"] for r in rejected)

    def test_backpressure_hints_identical_positions(self):
        result = run_conformance(BackpressureScenario())
        sim_flags = [r["retry_after_hint"] for r in result["netsim"]["records"]]
        rt_flags = [r["retry_after_hint"] for r in result["rt"]["records"]]
        assert sim_flags == rt_flags
        assert any(sim_flags), "the burst should cross the watermark"

    def test_failover_reaches_the_replica_in_one_retry(self):
        result = run_conformance(FailoverScenario())
        for run in (result["netsim"], result["rt"]):
            first, second = run["records"]
            assert first == {
                "op": "whoami",
                "ok": True,
                "value": "s2",
                "retry_after_hint": False,
                "retries": 1,
            }
            assert second["value"] == "STILL HERE"
            # Each reliable call builds a fresh rotation, so it pays
            # the same single discovery retry — on both substrates.
            assert second["retries"] == 1

    def test_woven_stack_serves_and_compresses_on_both_wires(self):
        result = run_conformance(WovenStackScenario())
        for run in (result["netsim"], result["rt"]):
            store, fetch, size = run["records"]
            assert store["ok"] and fetch["ok"] and size["value"] == 1
            requests = run["wires"]["server"]["in"]
            assert len(requests) == 3
            assert all(wire.startswith(b"MQOS") for wire in requests)
            # rle bit: the store request is smaller than its document.
            assert len(requests[0]) < len(fetch["value"])


class TestComparisonMachinery:
    def test_canonical_reply_scrubs_only_the_hint_value(self):
        from repro.orb import giop

        wire_a = giop.encode_reply(
            7,
            exception=OVERLOAD("queue full", retry_after=0.123),
            service_contexts={"maqs.sched.retry_after": 0.123},
        )
        wire_b = giop.encode_reply(
            7,
            exception=OVERLOAD("queue full", retry_after=0.456),
            service_contexts={"maqs.sched.retry_after": 0.456},
        )
        assert wire_a != wire_b
        assert canonical_reply(wire_a) == canonical_reply(wire_b)

    def test_divergent_records_fail_loudly(self):
        scenario = EchoScenario()
        netsim = run_scenario_netsim(scenario)
        rt = run_scenario_rt(scenario)
        rt["records"][0]["value"] = "TAMPERED"
        with pytest.raises(ConformanceFailure, match="records diverge"):
            compare_runs(scenario, netsim, rt)

    def test_divergent_bytes_fail_with_offset(self):
        scenario = EchoScenario()
        netsim = run_scenario_netsim(scenario)
        rt = run_scenario_rt(scenario)
        tampered = bytearray(rt["wires"]["server"]["in"][0])
        tampered[-1] ^= 0xFF
        rt["wires"]["server"]["in"][0] = bytes(tampered)
        with pytest.raises(ConformanceFailure, match="diverge at offset"):
            compare_runs(scenario, netsim, rt)
