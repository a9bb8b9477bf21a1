"""The CI quick matrix (tier-1) and the determinism gates.

This is the archetype deliverable: the scenario matrix itself runs as
a test.  The quick subset (4 scenarios x 2 stacks) executes in every
CI run and asserts each cell's SLOs; the full fleet x stack product
is the ``scenario_matrix`` workload of ``bench/run.py``.
"""

import pytest

from repro.scenario import (
    DEFAULT_STACKS,
    QUICK_STACKS,
    ScenarioMatrix,
    StackConfig,
    run_scenario,
)

#: The CI quick subset: one scenario per execution path plus chaos.
QUICK_SPECS = (
    "steady_poisson",     # orb/open baseline
    "flash_crowd",        # orb/open, WFQ classes under a 4x spike
    "regional_partition", # orb/txn, partition + failover + at-most-once
    "shard_onoff",        # shard tier, heavy-tailed ON/OFF
)


@pytest.fixture(scope="module")
def quick_matrix(spec_by_name):
    specs = [spec_by_name[name] for name in QUICK_SPECS]
    matrix = ScenarioMatrix(specs, QUICK_STACKS)
    matrix.run()
    return matrix


class TestQuickMatrix:
    def test_every_cell_ran(self, quick_matrix):
        # 3 orb specs x 2 stacks + 1 shard spec (stacks collapse) = 7.
        assert len(quick_matrix.cells) == 7

    def test_slos_pass(self, quick_matrix):
        quick_matrix.assert_slos()

    def test_every_cell_served_traffic(self, quick_matrix):
        for cell in quick_matrix.cells:
            assert cell.result.offered > 0, cell.key()
            assert cell.result.served > 0, cell.key()
            assert len(cell.result.exporter) == cell.result.offered, cell.key()

    def test_zero_duplicate_commits_everywhere(self, quick_matrix):
        for cell in quick_matrix.cells:
            assert cell.result.duplicate_commits == 0, cell.key()

    def test_reliability_stack_recovers_the_partition(self, quick_matrix):
        cells = {cell.key(): cell.result for cell in quick_matrix.cells}
        bare = cells["regional_partition/fifo-bare"]
        reliable = cells["regional_partition/wfq-reliable"]
        # The partition window kills bare transactions; the reliability
        # layer retries/fails over, so its goodput must beat bare's.
        assert bare.failures > 0
        assert reliable.goodput() > bare.goodput()
        assert reliable.goodput() >= 0.9
        assert reliable.retries > 0

    def test_wfq_protects_gold_through_the_flash_crowd(self, quick_matrix):
        cells = {cell.key(): cell.result for cell in quick_matrix.cells}
        wfq = cells["flash_crowd/wfq-reliable"]
        summary = wfq.latency_summary()
        assert summary["gold"]["p95_ms"] < summary["bronze"]["p95_ms"]

    def test_payload_is_json_serialisable(self, quick_matrix):
        import json

        payload = quick_matrix.to_payload()
        blob = json.loads(json.dumps(payload))
        assert len(blob["cells"]) == 7
        assert blob["violations"] == {}

    def test_matrix_rejects_empty_inputs(self, spec_by_name):
        with pytest.raises(ValueError, match="at least one spec"):
            ScenarioMatrix([], QUICK_STACKS)
        with pytest.raises(ValueError, match="at least one stack"):
            ScenarioMatrix([spec_by_name["steady_poisson"]], [])


class TestDeterminism:
    """Identical seed -> identical digests, byte-identical flow export."""

    def test_same_seed_same_flow_bytes(self, spec_by_name):
        spec = spec_by_name["steady_poisson"]
        a = run_scenario(spec, QUICK_STACKS[0])
        b = run_scenario(spec, QUICK_STACKS[0])
        assert a.exporter.dumps() == b.exporter.dumps()
        assert a.exporter.digest() == b.exporter.digest()

    def test_same_seed_same_campaign_digest(self, spec_by_name):
        spec = spec_by_name["regional_partition"]
        a = run_scenario(spec, QUICK_STACKS[0])
        b = run_scenario(spec, QUICK_STACKS[0])
        assert a.campaign_digest == b.campaign_digest
        assert a.campaign_digest  # chaos scenarios carry a real digest

    @pytest.mark.parametrize("shards", [1, 4])
    def test_shard_counts_agree_with_serial(self, spec_by_name, shards):
        """The acceptance gate: byte-identical flow export at shard
        counts {1, 4}."""
        spec = spec_by_name["shard_onoff"]
        serial = run_scenario(spec, shards=1)
        sharded = run_scenario(spec, shards=shards)
        assert serial.exporter.dumps() == sharded.exporter.dumps()
        assert serial.exporter.digest() == sharded.exporter.digest()

    def test_chaos_txn_replay_is_byte_identical(self, spec_by_name):
        """The hardest replay: retries, backoff and failover under a
        partition still produce identical telemetry bytes."""
        spec = spec_by_name["regional_partition"]
        stack = DEFAULT_STACKS[1]  # wfq-reliable
        a = run_scenario(spec, stack)
        b = run_scenario(spec, stack)
        assert a.exporter.dumps() == b.exporter.dumps()

    def test_different_seed_changes_flows(self, spec_by_name):
        import dataclasses

        spec = spec_by_name["steady_poisson"]
        reseeded = dataclasses.replace(spec, seed=spec.seed + 1)
        a = run_scenario(spec, QUICK_STACKS[0])
        b = run_scenario(reseeded, QUICK_STACKS[0])
        assert a.exporter.digest() != b.exporter.digest()


class TestStackAxes:
    def test_default_stacks_cover_the_axes(self):
        policies = {s.sched for s in DEFAULT_STACKS}
        assert policies == {"fifo", "wfq"}
        assert {s.reliability for s in DEFAULT_STACKS} == {True, False}
        assert any(s.codec for s in DEFAULT_STACKS)       # compression on
        assert any(s.codec == "" for s in DEFAULT_STACKS)  # stripped
        assert any(s.replicas == 1 for s in DEFAULT_STACKS)  # group size

    def test_replica_axis_caps_at_spec_hosts(self, spec_by_name):
        spec = spec_by_name["steady_poisson"]
        from repro.scenario.spec import SpecError

        with pytest.raises(SpecError, match="replicas=5"):
            StackConfig("too-big", replicas=5).resolve(spec)

    def test_solo_replica_runs(self, spec_by_name):
        spec = spec_by_name["steady_poisson"]
        result = run_scenario(spec, DEFAULT_STACKS[3])  # fifo-bare-solo
        assert result.served > 0
        dsts = {record.dst for record in result.exporter.records}
        assert len(dsts) == 1  # all traffic lands on the one replica
