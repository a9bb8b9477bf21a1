"""One workload in one fresh process.

``run.py`` starts this file once per fresh start.  It builds the
workload, prints ``READY`` (the parent stamps set-up time when it reads
that line), and then, depending on ``--mode``:

``setup``    exits: the start was only there to time set-up again;
``measure``  runs the untraced timed batches behind the end-to-end metrics;
``trace``    runs the micro-benchmarks and the traced run behind the
             per-layer metrics, and writes ``bench/out/trace_<workload>.jsonl``.

The last line printed is ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Timed batches a run makes however short ``--seconds`` is.
MIN_BATCHES = 3
#: A counter that ``repro.perf.snapshot()`` no longer offers.
UNAVAILABLE = -1.0


class Checker:
    """Feeds every batch to the workload's verifier and keeps the tally."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def __call__(self, inputs: Any, batch: Tuple[int, int, List[float], Any]) -> None:
        attempted, failed = self.workload.verify(inputs, batch[3])
        self.attempted += attempted
        self.failed += failed


def measure(workload: Any, seconds: float) -> Dict[str, Any]:
    check = Checker(workload)
    inputs = workload.prepare(0, workload.oracle_ops)
    check(inputs, workload.oracle_batch(inputs))
    inputs = workload.prepare(1)
    check(inputs, workload.run(inputs))  # warm-up, timings discarded

    rates: List[float] = []
    batch_p50: List[float] = []
    units: List[float] = []
    by_class: Dict[str, List[float]] = {}
    ops = 0
    deadline = perf_counter() + seconds
    while len(rates) < MIN_BATCHES or perf_counter() < deadline:
        inputs = workload.prepare(2 + len(rates))
        gc.collect()
        batch = workload.run(inputs)
        elapsed, ops, unit, _ = batch
        rates.append(ops / (elapsed / 1e9))
        batch_p50.append(statistics.median(unit) / 1e3)
        units.extend(unit)
        for size_class, ns in zip(getattr(workload, "classes", ()), unit):
            by_class.setdefault(size_class, []).append(ns)
        check(inputs, batch)
        del inputs, batch

    return {
        "batches": len(rates),
        "ops_per_batch": ops,
        "ops_per_s": rates,
        "op_us_p50": batch_p50,
        "op_us_samples": len(units),
        "op_us_p50_by_class": {
            name: statistics.median(ns) / 1e3 for name, ns in sorted(by_class.items())
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": check.attempted,
        "failed": check.failed,
        "oracles": workload.oracles,
    }


def _counters() -> Dict[str, Any]:
    """``repro.perf.snapshot()`` if the program still has one."""
    try:
        from repro.perf import snapshot

        return snapshot()
    except (ImportError, AttributeError):
        return {}


def _rate(before: Dict[str, Any], after: Dict[str, Any], stem: str) -> float:
    try:
        hits = after[f"{stem}_hits"] - before[f"{stem}_hits"]
        misses = after[f"{stem}_misses"] - before[f"{stem}_misses"]
    except KeyError:
        return UNAVAILABLE
    return hits / (hits + misses) if hits + misses else 0.0


def _delta(before: Dict[str, Any], after: Dict[str, Any], key: str) -> float:
    try:
        return float(after[key] - before[key])
    except KeyError:
        return UNAVAILABLE


#: Span layer -> the per-layer metric its self time is reported as.
SELF_TIME_METRICS = {
    "orb.stub": "orb.stub.self_us",
    "core.mediator": "core.mediator.self_us",
    "reliability": "reliability.self_us",
    "orb.giop": "orb.giop.self_us",
    "orb.modules": "orb.modules.self_us",
    "netsim.transport": "netsim.transport.self_us",
    "orb.server": "orb.server.self_us",
    "orb.poa": "orb.poa.dispatch_self_us",
    "sched": "sched.admit_us",
    "servant": "servant.self_us",
    "rt.client": "rt.client.self_us",
    "rt.transport": "rt.transport.self_us",
}


def counter_metrics(
    workload: Any, before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, float]:
    """Counts and ratios read at layer boundaries over the untraced calls."""
    metrics: Dict[str, float] = {}
    if hasattr(workload, "server_orb"):
        for metric, stem in (
            ("orb.giop.span_hit_rate", "any_span"),
            ("orb.giop.ctx_hit_rate", "ctx_cache"),
            ("orb.giop.ior_hit_rate", "ior_parse"),
            ("orb.pool.encoder_hit_rate", "encoder_pool"),
        ):
            metrics[metric] = _rate(before, after, stem)
    if hasattr(workload, "scheduler"):
        metrics["sched.admitted"] = _delta(before, after, "sched_admitted")
        metrics["sched.shed"] = _delta(before, after, "sched_shed")
        metrics["sched.depth_peak"] = float(workload.scheduler.depth_peak)
    if hasattr(workload, "reliability"):
        metrics["reliability.retries"] = float(workload.reliability.retries_used)
    for key in ("sim.rtt_ms", "sim.wire_bytes_per_call"):
        if key in workload.oracles:
            metrics[key] = workload.oracles[key]
    return metrics


def latency_metrics(workload: Any, unit: List[float]) -> Dict[str, float]:
    """Tails, and the median of each size class, of the untraced calls."""
    from summary import percentile

    metrics: Dict[str, float] = {}
    if len(unit) >= 100:
        # 2 000 calls leave 20 samples beyond p99 and too few beyond
        # p99.9, which is therefore not reported.
        metrics["client.invoke_us_p99"] = percentile(unit, 0.99) / 1e3
    classes = getattr(workload, "classes", ())
    for size_class in set(classes):
        of_class = [ns for ns, name in zip(unit, classes) if name == size_class]
        metrics[f"client.invoke_us_p50.{size_class}"] = statistics.median(of_class) / 1e3
    return metrics


def server_metrics(workload: Any, ops: int, check: Checker, invoke_us: float) -> Dict[str, float]:
    """The timed path with one wrapper only, around the server's entry
    point: what ``ORB.handle_incoming`` costs on this workload's own
    requests and, on sockets, what is left of a request without it."""
    import spans

    timer = spans.Tracer()
    spans.install(timer, only=("ORB.handle_incoming",))
    inputs = workload.prepare(-3, ops)
    gc.collect()
    timed = workload.run(inputs)
    timer.unwrap_all()
    check(inputs, timed)
    if not timer.spans:
        return {}
    handle_us = (
        statistics.median(span[spans.END] - span[spans.START] for span in timer.spans) / 1e3
    )
    metrics = {"orb.server.handle_incoming_us": handle_us}
    if hasattr(workload, "connection"):
        per_request_us = statistics.median(timed[2]) / 1e3
        metrics["rt.wire_us"] = per_request_us - handle_us
        metrics["rt.wire_share"] = (per_request_us - handle_us) / per_request_us
        metrics["rt.client.invoke_us_p50"] = invoke_us
        metrics["rt.client.handoff_us"] = invoke_us - per_request_us
    return metrics


def span_metrics(
    all_spans: List[list], by_layer: Dict[str, int], by_name: Dict[str, int], ops: int
) -> Dict[str, float]:
    """Mean self time per operation of each layer, from the traced run."""
    import spans

    metrics: Dict[str, float] = {"trace.spans": float(len(all_spans))}
    for layer, metric in SELF_TIME_METRICS.items():
        if layer in by_layer:
            metrics[metric] = by_layer[layer] / ops / 1e3
    if "scenario.run" in by_layer:
        build_s = spans.layer_total_s(all_spans, "runner.build_deployment")
        metrics["scenario.build_s"] = build_s
        metrics["scenario.run_s"] = spans.layer_total_s(all_spans, "runner.run_scenario") - build_s
    if "netsim.parallel" in by_layer:
        # What the sharded run spends outside its shards' windows:
        # finding the next window and exchanging outboxes.
        run_ns = spans.layer_total_s(all_spans, "ShardedKernel.run") * 1e9
        barrier_ns = by_name.get("ShardedKernel.run", 0)
        metrics["netsim.parallel.barrier_share"] = barrier_ns / run_ns if run_ns else 0.0
    return metrics


def trace(workload: Any) -> Dict[str, Any]:
    import micro
    import spans

    check = Checker(workload)
    ops = min(workload.trace_ops, workload.smoke_ops) if workload.smoke else workload.trace_ops
    inputs = workload.prepare(0, workload.oracle_ops)
    check(inputs, workload.oracle_batch(inputs))

    metrics: Dict[str, float] = dict(workload.setup_parts)
    for group in workload.micro:
        metrics.update(micro.GROUPS[group](workload))

    # Untraced, the way the traced run will go: the baseline for the
    # tracing overhead, and where counters and tails are read.
    network = getattr(getattr(workload, "world", None), "network", None)
    sent = (network.messages_sent, network.bytes_sent) if network else (0, 0)
    counters_before = _counters()
    inputs = workload.trace_inputs(ops)
    gc.collect()
    plain = workload.traced_run(inputs)
    check(inputs, plain)
    plain_ops, plain_unit = plain[1], plain[2]
    plain_p50_us = statistics.median(plain_unit) / 1e3
    metrics.update(counter_metrics(workload, counters_before, _counters()))
    metrics.update(latency_metrics(workload, plain_unit))
    metrics.update(workload.layer_metrics(plain))
    if network:
        metrics["netsim.network.messages"] = (network.messages_sent - sent[0]) / plain_ops
        metrics["netsim.network.bytes"] = (network.bytes_sent - sent[1]) / plain_ops

    metrics.update(server_metrics(workload, ops, check, plain_p50_us))

    tracer = spans.Tracer()
    spans.install(tracer, servant_classes=workload.servant_classes())
    inputs = workload.trace_inputs(ops)
    gc.collect()
    traced = workload.traced_run(inputs)
    tracer.unwrap_all()
    check(inputs, traced)
    traced_wall_ns, traced_ops, traced_unit = traced[:3]
    by_layer, by_name = spans.self_totals(tracer.spans)
    metrics.update(span_metrics(tracer.spans, by_layer, by_name, traced_ops))
    metrics["trace.overhead_ratio"] = statistics.median(traced_unit) / 1e3 / plain_p50_us
    metrics["trace.attributed_share"] = sum(by_name.values()) / traced_wall_ns

    os.makedirs(OUT, exist_ok=True)
    trace_file = os.path.join(OUT, f"trace_{workload.name}.jsonl")
    tracer.write_jsonl(trace_file)
    return {
        "metrics": metrics,
        "budget_us": {name: total / traced_ops / 1e3 for name, total in sorted(by_name.items())},
        "traced_wall_us": traced_wall_ns / traced_ops / 1e3,
        "untraced_p50_us": plain_p50_us,
        "tail_samples": len(plain_unit),
        "trace_file": os.path.relpath(trace_file, ROOT),
        "warnings": tracer.warnings,
        "attempted": check.attempted,
        "failed": check.failed,
        "oracles": workload.oracles,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 3
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    # One CPU for the whole process.  On this VM a thread woken on the
    # other vCPU costs ~100 us more than one woken on its own: with the
    # scheduler free to place the two rt loop threads, rt_loopback read
    # 110 us or 215 us a request for minutes at a time, and the
    # pipelined rate 27k/s or 7k/s.  The threads share one GIL anyway.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workload.setup()
    print("READY", flush=True)
    try:
        if args.mode == "setup":
            return 0
        result = measure(workload, args.seconds) if args.mode == "measure" else trace(workload)
    finally:
        workload.close()
    from repro.orb import cdr

    result.update(
        cdr_impl=str(getattr(cdr, "FAST_IMPL", "unknown")), op=workload.op, loop=workload.loop
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
