#!/usr/bin/env python3
"""The repo's benchmark: every workload, every metric, one command.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
        [--trace [0|1|both]] [--smoke] [--out FILE]

Each workload runs in fresh processes of its own, one after another —
never two at once: load comes from one process, one client, one
connection.  ``--trace 0`` (the default) prints the end-to-end metrics
from untraced runs, ``--trace 1`` the per-layer metrics from the
micro-benchmarks and the traced run, a bare ``--trace`` both.  Outputs
are verified on every run; a wrong output or a moved pin makes the exit
code non-zero.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Metric names, units and bounds live in ``BENCHMARK.json``; see
``bench/README.md`` for what each means and what should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from summary import summarize  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
#: Fresh starts behind ``setup_s`` (the measuring start is one of them).
FRESH_STARTS = 5
#: No child may outlive this many seconds.
CHILD_TIMEOUT = 170.0


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def start_worker(
    workload: str, seed: int, seconds: float, mode: str, smoke: bool
) -> Tuple[float, Optional[Dict[str, Any]]]:
    """One fresh start: ``(set-up seconds, the worker's result if any)``.

    Set-up runs from just before the process is created to the moment
    its ``READY`` line arrives: interpreter start, imports, QIDL
    compile, deployment build, server start.
    """
    command = [
        sys.executable, WORKER,
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    started = perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT, child.kill)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in child.stdout:  # type: ignore[union-attr]
            if line.startswith("READY") and setup_s is None:
                setup_s = perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    except BaseException:
        child.kill()
        raise
    finally:
        watchdog.cancel()
        code = child.wait()
    if code != 0 or setup_s is None or (result is None and mode != "setup"):
        raise SystemExit(f"worker for {workload} ({mode}) failed with exit code {code}")
    return setup_s, result


def pin_mismatches(observed: Dict[str, Any], pinned: Dict[str, Any]) -> List[str]:
    """Pinned simulated outputs this run produced differently."""
    return sorted(
        key for key, value in pinned.items() if key in observed and observed[key] != value
    )


def run_workload(name: str, args: argparse.Namespace, pins: Dict[str, Any]) -> Dict[str, Any]:
    """All the fresh starts of one workload; returns its record."""
    record: Dict[str, Any] = {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0}
    oracles: Dict[str, Any] = {}

    if args.trace in ("0", "both"):
        # Half of the set-up-only starts before the measuring one and
        # half after it, so that one burst of noise cannot cover them all.
        extra = 0 if args.smoke else FRESH_STARTS - 1
        setups = [start_worker(name, args.seed, 0, "setup", False)[0] for _ in range(extra // 2)]
        setup_s, result = start_worker(name, args.seed, args.seconds, "measure", args.smoke)
        setups.append(setup_s)
        setups += [
            start_worker(name, args.seed, 0, "setup", False)[0] for _ in range(extra - extra // 2)
        ]
        record["end_to_end"] = {
            "setup_s": summarize(setups, False),
            "ops_per_s": summarize(result["ops_per_s"], True),
            "op_us_p50": summarize(result["op_us_p50"], False),
            "peak_rss_mb": summarize([result["peak_rss_mb"]], False),
        }
        record["batches"] = result["batches"]
        record["op_us_samples"] = result["op_us_samples"]
        record["ops_per_batch"] = result["ops_per_batch"]
        if result["op_us_p50_by_class"]:
            record["op_us_p50_by_class"] = result["op_us_p50_by_class"]
        record["attempted"] += result["attempted"]
        record["failed"] += result["failed"]
        oracles.update(result["oracles"])

    if args.trace in ("1", "both"):
        _, result = start_worker(name, args.seed, args.seconds, "trace", args.smoke)
        record["per_layer"] = result["metrics"]
        for key in ("budget_us", "traced_wall_us", "untraced_p50_us", "tail_samples",
                    "trace_file", "warnings"):  # fmt: skip
            record[key] = result[key]
        record["attempted"] += result["attempted"]
        record["failed"] += result["failed"]
        oracles.update(result["oracles"])

    for key in ("op", "loop", "cdr_impl"):
        record[key] = result[key]
    record["oracles"] = oracles
    record["pin_mismatches"] = pin_mismatches(oracles, pins.get(name, {}))
    # A moved pin is one more wrong output.
    record["failed"] += len(record["pin_mismatches"])
    record["failed_share"] = record["failed"] / record["attempted"]
    record["correct"] = record["failed"] == 0
    return record


def contract_line(record: Dict[str, Any], contract: Dict[str, Any], trace: str) -> str:
    """The driver's line: every named metric of the chosen kind."""
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace in ("0", "both"):
        for spec in contract["end_to_end"]:
            value = record["end_to_end"][spec["name"]]["value"]
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    if trace in ("1", "both"):
        unnamed = set(record["per_layer"]) - {spec["name"] for spec in contract["per_layer"]}
        if unnamed:
            raise SystemExit(f"per-layer metrics BENCHMARK.json does not name: {sorted(unnamed)}")
        for spec in contract["per_layer"]:
            # A layer that did no work in this workload reports 0.
            value = record["per_layer"].get(spec["name"], 0.0)
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def print_workload(name: str, record: Dict[str, Any], contract: Dict[str, Any]) -> None:
    why = next(w["why"] for w in contract["workloads"] if w["name"] == name)
    print(f"\n== {name}: {why}")
    print(f"  one operation: {record['op']}")
    print(f"  load: {record['loop']}")
    units = {spec["name"]: spec["unit"] for key in ("end_to_end", "per_layer") for spec in contract[key]}
    for metric, stats in record["end_to_end"].items():
        print(
            f"  {metric:<14} {stats['value']:>14.4f} {units[metric]:<6} (median"
            f" {stats['median']:.4f}  q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n {stats['n']})"
        )
    for size_class, p50 in record.get("op_us_p50_by_class", {}).items():
        print(f"  op_us_p50.{size_class:<6} {p50:>12.4f} us")
    for metric, value in sorted(record["per_layer"].items()):
        note = "  (counter unavailable)" if value == -1.0 else ""
        print(f"  {metric:<40} {value:>16.4f} {units.get(metric, '?')}{note}")
    if "tail_samples" in record:
        print(f"  tails and overhead from n = {record['tail_samples']} untraced calls; "
              f"trace in {record['trace_file']}")  # fmt: skip
    for warning in record.get("warnings", ()):
        print(f"  warning: {warning}")
    for key in record["pin_mismatches"]:
        print(f"  PIN MOVED: {key} = {record['oracles'][key]!r}")
    print(
        f"  attempted {record['attempted']}  failed {record['failed']}"
        f"  failed_share {record['failed_share']:.6f}"
    )


def print_budget(records: Dict[str, Dict[str, Any]]) -> None:
    """One operation's budget, workloads side by side: self µs by span."""
    traced = {name: rec for name, rec in records.items() if "budget_us" in rec}
    if not traced:
        return
    spans = sorted({span for rec in traced.values() for span in rec["budget_us"]})
    print("\nbudget: mean self time per operation, us (netsim and rt side by side)")
    print(f"  {'span':<28}" + "".join(f"{name[:14]:>15}" for name in traced))
    for span in spans:
        cells = (rec["budget_us"].get(span) for rec in traced.values())
        print(f"  {span:<28}" + "".join(f"{'' if c is None else f'{c:.2f}':>15}" for c in cells))
    for label, key in (("sum of self times", None), ("traced wall", "traced_wall_us"),
                       ("untraced p50", "untraced_p50_us")):  # fmt: skip
        cells = (
            sum(rec["budget_us"].values()) if key is None else rec[key] for rec in traced.values()
        )
        print(f"  {label:<28}" + "".join(f"{c:>15.2f}" for c in cells))


def environment(args: argparse.Namespace, records: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cdr_impl": next(iter(records.values()))["cdr_impl"],
        "git_commit": commit or "unknown",
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0, help="payload generator seed")
    parser.add_argument("--seconds", type=float, help="timed seconds per run")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"))  # fmt: skip
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: a functional check, not a measurement")
    parser.add_argument("--out", help="write the full JSON record here")
    parser.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                        help="pinned simulated outputs")  # fmt: skip
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the pins of the workloads run from this run")  # fmt: skip
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("no program to measure: src/repro is missing", file=sys.stderr)
        return 3
    contract = load_contract()
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(contract["run_seconds"])
    names = [w["name"] for w in contract["workloads"]]
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]

    with open(args.expected) as handle:
        expected = json.load(handle)
    # Pins hold for the seed they were taken with; other seeds still
    # check every reply and that outputs repeat from batch to batch.
    pins = expected["workloads"] if args.seed == expected["seed"] and not args.pin else {}

    records: Dict[str, Dict[str, Any]] = {}
    line = ""
    for name in names:
        records[name] = run_workload(name, args, pins)
        print_workload(name, records[name], contract)
        line = contract_line(records[name], contract, args.trace)
        if len(names) > 1:
            print(line)
    print_budget(records)

    if args.pin:
        expected["seed"] = args.seed
        for name, record in records.items():
            # Merged, so that a smoke run adds its sizes to a full run's pins.
            expected["workloads"].setdefault(name, {}).update(record["oracles"])
        with open(args.expected, "w") as handle:
            json.dump(expected, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\npinned {sorted(records)} in {args.expected}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"environment": environment(args, records), "workloads": records},
                handle, indent=2,
            )  # fmt: skip
            handle.write("\n")
    sys.stdout.flush()
    print(line)
    return 0 if all(record["correct"] for record in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
