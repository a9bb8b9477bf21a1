#!/usr/bin/env python3
"""Compare two records written by ``run.py --out``: A is the base, B the change.

    python3 bench/compare.py A.json B.json

For every workload and end-to-end metric: both reported values (the
fast quartile of the run's samples, see summary.py) with median and
quartiles, the ratio B/A (base: A), and a verdict against the bound
``BENCHMARK.json`` fixes for the metric:

``worse``       B's value is worse than A's by more than the bound;
``better``      better by more than the bound;
``same``        within the bound either way;
``unresolved``  on one side the median sits further than the bound from
                the fast quartile — more than half of that run was
                disturbed, so its value decides nothing — unless every
                sample of one side beats every sample of the other.

Samples are the timed batches of the run (fresh starts for ``setup_s``).
Exit code 1 on any ``worse``, on a larger ``failed_share``, or when two
runs of the same seed disagree on a simulated output.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(stats: Dict[str, Any]) -> float:
    """How far the median sits from the reported fast quartile.

    Noise on a shared box only adds time, so the samples' full quartile
    distance mostly measures the neighbours; the near side of it says
    whether the fast quartile still rests on undisturbed batches.
    """
    return abs(stats["median"] - stats["value"]) / stats["value"]


def verdict(a: Dict[str, Any], b: Dict[str, Any], higher_is_better: bool, bound: float) -> str:
    sign = -1.0 if higher_is_better else 1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if max(spread(a), spread(b)) > bound:
        # Too noisy for one value a side; only a clean separation of samples decides.
        a_cost = [sign * value for value in a["samples"]]
        b_cost = [sign * value for value in b["samples"]]
        if max(b_cost) < min(a_cost):
            return "better"
        if min(b_cost) > max(a_cost):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        record = json.load(handle)
        base, base_seed = record["workloads"], record["environment"]["seed"]
    with open(argv[1]) as handle:
        record = json.load(handle)
        change, change_seed = record["workloads"], record["environment"]["seed"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)

    failed = False
    print(
        f"{'workload':<16} {'metric':<12} {'A value (median) [q1, q3]':>50} "
        f"{'B value (median) [q1, q3]':>50} {'B/A':>7}  verdict (bound)"
    )
    for name in base:
        if name not in change:
            continue
        for spec in contract["end_to_end"]:
            a = base[name]["end_to_end"].get(spec["name"])
            b = change[name]["end_to_end"].get(spec["name"])
            if a is None or b is None:
                continue
            result = verdict(a, b, spec["better"] == "higher", spec["bound"])
            failed |= result == "worse"
            cells = [
                f"{s['value']:.4f} ({s['median']:.4f}) [{s['q1']:.4f}, {s['q3']:.4f}]"
                for s in (a, b)
            ]
            print(
                f"{name:<16} {spec['name']:<12} {cells[0]:>50} {cells[1]:>50} "
                f"{b['value'] / a['value']:>7.3f}  {result} ({spec['bound']})"
            )
        share_a, share_b = base[name]["failed_share"], change[name]["failed_share"]
        if share_b > share_a:
            failed = True
            print(f"{name:<16} failed_share rose from {share_a} to {share_b}: worse")
        moved = sorted(
            key
            for key, value in base[name]["oracles"].items()
            if change[name]["oracles"].get(key, value) != value
        )
        if moved and base_seed == change_seed:
            # Same seed, same inputs: a host-speed change moves none of these.
            failed = True
            print(f"{name:<16} simulated outputs differ between A and B: {moved}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
