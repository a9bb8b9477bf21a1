"""Smoke and unit tests of the benchmark itself.

Run with ``python -m pytest bench/tests`` from the repository root; not
part of the tier-1 suite (``testpaths`` names ``tests/`` only).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import payloads  # noqa: E402
import spans  # noqa: E402

RUN = [sys.executable, os.path.join(BENCH, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    started = time.perf_counter()
    done = subprocess.run(
        RUN + ["--smoke", "--trace", "--out", str(out)], capture_output=True, text=True
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out) as handle:
        return json.load(handle), done.stdout, elapsed


def test_smoke_is_quick(smoke):
    assert smoke[2] < 20.0


def test_every_named_workload_and_metric_and_nothing_unnamed(smoke):
    record = smoke[0]["workloads"]
    assert list(record) == [w["name"] for w in CONTRACT["workloads"]]
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    emitted = set()
    for workload in record.values():
        assert set(workload["end_to_end"]) == end_to_end
        assert all(stats["value"] > 0 for stats in workload["end_to_end"].values())
        assert set(workload["per_layer"]) <= per_layer
        emitted |= set(workload["per_layer"])
    # Every per-layer metric is measured by at least one workload.
    assert emitted == per_layer
    for name in end_to_end | per_layer | set(record):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)


def test_last_line_is_the_contract_object(smoke):
    line = json.loads(smoke[1].strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1


def test_no_output_is_wrong_and_pins_hold(smoke):
    for workload in smoke[0]["workloads"].values():
        assert workload["failed_share"] == 0
        assert workload["pin_mismatches"] == []
        assert workload["attempted"] > 0


def test_traces_are_written_and_self_times_cover_the_invocation(smoke):
    for name, workload in smoke[0]["workloads"].items():
        assert os.path.getsize(os.path.join(ROOT, workload["trace_file"])) > 0
    echo = smoke[0]["workloads"]["echo_hot"]
    assert sum(echo["budget_us"].values()) == pytest.approx(echo["traced_wall_us"], rel=0.10)
    assert echo["per_layer"]["trace.overhead_ratio"] > 0


def test_hot_replays_spans_and_cold_misses_them(smoke):
    hot = smoke[0]["workloads"]["echo_hot"]["per_layer"]["orb.giop.span_hit_rate"]
    cold = smoke[0]["workloads"]["echo_cold"]["per_layer"]["orb.giop.span_hit_rate"]
    assert hot > 0.95 and cold < 0.05


def test_a_corrupted_pin_fails_the_run(tmp_path):
    with open(os.path.join(BENCH, "expected.json")) as handle:
        expected = json.load(handle)
    expected["workloads"]["echo_hot"]["reply_sha256"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    done = subprocess.run(
        RUN + ["--smoke", "--workload", "echo_hot", "--expected", str(corrupted)],
        capture_output=True,
        text=True,
    )
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "echo_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],  # fmt: skip
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


# -- payload generators ---------------------------------------------------


def _cdr(value):
    from repro.orb.cdr import CDREncoder

    encoder = CDREncoder()
    encoder.write_any(value)
    return encoder.getvalue()


def _ladder(seed):
    rng = payloads.rng_for(seed, "test")
    classes = payloads.mixed_classes(rng, 24)
    return classes, [_cdr(payloads.struct_payload(rng, name)) for name in classes]


def test_same_seed_same_bytes_other_seed_same_shape():
    classes_a, wires_a = _ladder(0)
    classes_b, wires_b = _ladder(0)
    assert (classes_a, wires_a) == (classes_b, wires_b)
    classes_c, wires_c = _ladder(1)
    assert wires_c != wires_a
    assert sorted(map(len, wires_c)) == sorted(map(len, wires_a))
    assert {name: classes_c.count(name) for name in payloads.MIX} == {
        name: 2 * share for name, share in payloads.MIX.items()
    }


def test_size_ladder():
    rng = payloads.rng_for(0, "sizes")
    sizes = {name: len(_cdr(payloads.struct_payload(rng, name))) for name in payloads.LADDER}
    assert 250 <= sizes["small"] <= 350
    assert 1800 <= sizes["medium"] <= 2300
    assert 15000 <= sizes["large"] <= 17500
    assert len(payloads.document(rng)) == 256


# -- span arithmetic --------------------------------------------------------


def _span(name, start, end, parent):
    return [name, name, start, end, parent, 0]


def test_self_time_of_nested_spans():
    tree = [_span("a", 0, 100, -1), _span("b", 10, 60, 0), _span("c", 20, 30, 1)]
    assert spans.self_times(tree) == [50, 40, 10]


def test_self_time_of_sibling_spans():
    tree = [_span("a", 0, 100, -1), _span("b", 10, 30, 0), _span("c", 50, 90, 0)]
    assert spans.self_times(tree) == [40, 20, 40]


def test_self_time_of_overlapping_and_overhanging_children():
    # b and c overlap on [40, 50]; d starts inside a and outlives it.
    tree = [
        _span("a", 0, 100, -1),
        _span("b", 10, 50, 0),
        _span("c", 40, 70, 0),
        _span("d", 90, 130, 0),
    ]
    assert spans.self_times(tree) == [30, 40, 30, 40]


def test_self_totals_add_up_to_the_root_spans():
    tree = [
        _span("call", 0, 100, -1),
        _span("codec", 10, 40, 0),
        _span("call", 200, 260, -1),
    ]
    by_layer, by_name = spans.self_totals(tree)
    assert by_layer == by_name == {"call": 130, "codec": 30}


def test_tracer_records_parents_and_restores_what_it_wrapped():
    class Layers:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = spans.Tracer()
    assert tracer.wrap([Layers], "outer", "Layers.outer", "top")
    assert tracer.wrap([Layers], "inner", "Layers.inner", "bottom")
    assert Layers().outer() == 2
    assert [(s[spans.NAME], s[spans.PARENT], s[spans.INVOCATION]) for s in tracer.spans] == [
        ("Layers.outer", -1, 0),
        ("Layers.inner", 0, 0),
    ]
    tracer.unwrap_all()
    Layers().outer()
    assert len(tracer.spans) == 2


def test_a_wrap_point_that_is_gone_warns_and_does_not_raise():
    tracer = spans.Tracer()
    assert not tracer.wrap([object], "no_such_method", "object.no_such_method", "x")
    assert "gone" in tracer.warnings[0]


# -- compare ------------------------------------------------------------------


def _stats(samples, higher_is_better=True):
    from summary import summarize

    return summarize(samples, higher_is_better)


def test_compare_verdicts():
    steady = _stats([100.0, 101.0, 99.0, 100.5, 99.5])
    assert compare.verdict(steady, _stats([100.2, 99.8, 100.0]), True, 0.07) == "same"
    assert compare.verdict(steady, _stats([90.0, 89.5, 90.5]), True, 0.07) == "worse"
    assert (
        compare.verdict(_stats(steady["samples"], False), _stats([90.0, 89.5, 90.5], False), False, 0.07)
        == "better"
    )
    # More than half of the batches were disturbed: the median is far
    # below the fast quartile.
    noisy = _stats([60.0, 62.0, 61.0, 100.0, 101.0])
    assert compare.verdict(steady, noisy, True, 0.07) == "unresolved"
    # Noisy, but every sample beats every sample of the base.
    faster = _stats([150.0, 180.0, 210.0, 160.0])
    assert compare.verdict(steady, faster, True, 0.07) == "better"
