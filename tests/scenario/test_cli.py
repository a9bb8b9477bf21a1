"""The ``python -m repro.scenario`` command line."""

import json

import pytest

from repro.scenario.__main__ import main
from tests.scenario.conftest import SCENARIO_DIR, scenario_paths


def spec_path(name):
    return f"{SCENARIO_DIR}/{name}.toml"


class TestRunCommand:
    def test_run_passes_and_reports(self, capsys):
        assert main(["run", spec_path("steady_poisson")]) == 0
        out = capsys.readouterr().out
        assert "SLOs: pass" in out
        assert "goodput" in out
        assert "campaign" in out or "flows" in out

    def test_run_with_stack_override(self, capsys):
        assert main(
            ["run", spec_path("steady_poisson"), "--stack", "wfq-reliable"]
        ) == 0
        assert "stack=wfq-reliable" in capsys.readouterr().out

    def test_run_unknown_stack_lists_known(self):
        with pytest.raises(SystemExit, match="known stacks"):
            main(["run", spec_path("steady_poisson"), "--stack", "nope"])

    def test_run_writes_flowexport(self, tmp_path, capsys):
        out = tmp_path / "flows.jsonl"
        assert main(
            ["run", spec_path("shard_onoff"), "--shards", "2",
             "--flowexport", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert {"flow_id", "klass", "src", "dst", "nbytes", "start", "end",
                "drops", "retries"} <= set(record)

    def test_run_missing_spec_is_error(self, capsys):
        assert main(["run", "scenarios/does_not_exist.toml"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_invalid_spec_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('duration = -1.0\n[group]\nhosts = ["x"]\n')
        assert main(["run", str(bad)]) == 2
        assert "duration" in capsys.readouterr().err

    def test_run_reports_slo_violation(self, tmp_path, capsys):
        strict = tmp_path / "strict.toml"
        strict.write_text(
            """
            duration = 0.4

            [topology.lan]
            hosts = ["client", "s1"]

            [group]
            hosts = ["s1"]
            service_time = 0.004

            [traffic]
            kind = "poisson"
            rate = 50.0
            sources = ["client"]

            [slo]
            p95_ms = 0.001
            """
        )
        assert main(["run", str(strict)]) == 1
        assert "SLO VIOLATIONS" in capsys.readouterr().out


class TestValidateCommand:
    def test_all_shipped_specs_validate(self, capsys):
        assert main(["validate", *scenario_paths()]) == 0
        out = capsys.readouterr().out
        assert out.count("ok   ") >= 8
        assert "FAIL" not in out

    def test_invalid_spec_fails_with_reason(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text(
            """
            duration = 1.0

            [topology]
            hosts = ["a"]

            [group]
            hosts = ["ghost"]

            [traffic]
            sources = ["a"]
            """
        )
        assert main(["validate", str(bad)]) == 1
        assert "ghost" in capsys.readouterr().out

    def test_malformed_spec_fails_without_a_traceback(self, tmp_path, capsys):
        bad = tmp_path / "half_link.toml"
        bad.write_text(
            """
            [topology]
            hosts = ["a", "b"]

            [[topology.links]]
            a = "a"

            [group]
            hosts = ["b"]

            [traffic]
            sources = ["a"]
            """
        )
        assert main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"FAIL {bad}: topology.links[0]: missing 'b'" in out
