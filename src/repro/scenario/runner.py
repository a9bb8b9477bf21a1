"""Execute one scenario (spec x stack) and judge its SLOs.

Three execution paths, selected by the spec:

- **orb / open** — open-loop arrivals fanned out through the real
  GIOP/round-trip datapath with the chaos campaign and fluid
  background interleaving on the same kernel; requests route to the
  least-backlogged live replica at each departure.
- **orb / txn** — paced multi-call transactions through the full
  stub/mediator/QoS-module path (ending in one non-idempotent
  ``commit``), which is where reliability, compression stacks and the
  duplicate-commit invariant are exercised.
- **shard** — the ON/OFF handler program on the sharded kernel; flows
  come back through the canonically sorted trace, so the flow export
  is byte-identical at every shard count.

Every path fills a :class:`ScenarioResult` with per-class latency
series, a :class:`~repro.scenario.flowexport.FlowExporter`, the chaos
campaign digest and the list of SLO violations (empty = pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.orb import giop
from repro.orb.exceptions import SystemException
from repro.orb.request import Request
from repro.perf import COUNTERS
from repro.scenario.configurator import (
    Deployment,
    StackConfig,
    build_deployment,
)
from repro.scenario.flowexport import FlowExporter, FlowRecord, flows_from_trace
from repro.scenario.spec import Spec, SpecError
from repro.scenario.traffic import (
    diurnal_arrivals,
    flash_crowd_arrivals,
    onoff_arrivals,
)
from repro.sched import CLASS_CONTEXT
from repro.workloads.drivers import ClosedLoopResult
from repro.workloads.generators import poisson_arrivals, uniform_arrivals

__all__ = ["ScenarioResult", "arrival_times", "run_scenario"]


@dataclass
class ScenarioResult:
    """Everything a matrix row needs about one scenario execution."""

    spec_name: str
    stack_name: str
    tier: str
    offered: int = 0
    served: int = 0
    failures: int = 0
    duplicate_commits: int = 0
    elapsed: float = 0.0
    retries: int = 0
    campaign_digest: str = ""
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    exporter: FlowExporter = field(default_factory=FlowExporter)
    violations: List[str] = field(default_factory=list)
    kernel_stats: Dict[str, Any] = field(default_factory=dict)

    def all_latencies(self) -> List[float]:
        merged: List[float] = []
        for series in self.latencies.values():
            merged.extend(series)
        return merged

    def latency_summary(self) -> Dict[str, Dict[str, float]]:
        report: Dict[str, Dict[str, float]] = {}
        for klass, series in sorted(self.latencies.items()):
            stats = ClosedLoopResult(series, 0, self.elapsed)
            report[klass] = {
                "count": float(stats.count),
                "p50_ms": round(stats.p50() * 1e3, 3),
                "p95_ms": round(stats.p95() * 1e3, 3),
                "p99_ms": round(stats.p99() * 1e3, 3),
            }
        return report

    def goodput(self, contract_s: Optional[float] = None) -> float:
        """Fraction of offered work that completed (within the contract)."""
        if not self.offered:
            return 0.0
        if contract_s is None:
            return self.served / self.offered
        good = sum(
            1
            for series in self.latencies.values()
            for latency in series
            if latency <= contract_s
        )
        return good / self.offered

    def ok(self) -> bool:
        return not self.violations


# -- arrival processes ----------------------------------------------------


def arrival_times(spec: Spec) -> List[float]:
    """The spec's arrival instants (seconds from run start), seeded."""
    traffic = spec.traffic
    if traffic.kind == "poisson":
        return poisson_arrivals(traffic.rate, spec.duration, seed=spec.seed)
    if traffic.kind == "uniform":
        return uniform_arrivals(traffic.rate, spec.duration)
    if traffic.kind == "onoff":
        return onoff_arrivals(
            spec.duration,
            sources=traffic.onoff_sources,
            burst_rate=traffic.burst_rate,
            on_alpha=traffic.on_alpha,
            on_min=traffic.on_min,
            on_max=traffic.on_max,
            off_mu=traffic.off_mu,
            off_sigma=traffic.off_sigma,
            seed=spec.seed,
        )
    if traffic.kind == "diurnal":
        return diurnal_arrivals(
            traffic.rate,
            spec.duration,
            period=traffic.period,
            amplitude=traffic.amplitude,
            phase=traffic.phase,
            seed=spec.seed,
        )
    if traffic.kind == "flash_crowd":
        return flash_crowd_arrivals(
            spec.duration,
            traffic.base_rate,
            traffic.peak_rate,
            traffic.ramp_at,
            ramp=traffic.ramp,
            hold=traffic.hold,
            decay=traffic.decay,
            seed=spec.seed,
        )
    raise SpecError(f"unknown traffic kind {traffic.kind!r}")  # pragma: no cover


def _classify(spec: Spec, count: int) -> List[str]:
    """A deterministic class label per arrival, honouring the shares."""
    import random

    classes = sorted(spec.traffic.classes.items())
    names = [name for name, _ in classes]
    weights = [share for _, share in classes]
    rng = random.Random(f"{spec.seed}:classes")
    return [
        names[0] if len(names) == 1
        else rng.choices(names, weights=weights)[0]
        for _ in range(count)
    ]


# -- execution paths -------------------------------------------------------


def _run_open(spec: Spec, deployment: Deployment) -> ScenarioResult:
    """Open-loop fan-out over the replica group, per-source client ORBs.

    The same time-explicit loop as
    :func:`repro.workloads.drivers.open_loop_fanout`, with one twist:
    each arrival departs from *its own* source host's ORB, so cohort
    and slow-link scenarios price the client-side path correctly.
    The kernel is drained to each departure, interleaving the chaos
    campaign and any fluid background in simulated-time order.
    """
    world = deployment.world
    result = ScenarioResult(spec.name, deployment.stack.name, spec.tier)
    times = arrival_times(spec)
    labels = _classify(spec, len(times))
    sources = spec.traffic.sources
    operation = spec.traffic.operation
    args: Tuple[Any, ...] = (spec.traffic.units,)
    clock = world.clock
    kernel = world.kernel
    base = clock.now
    last_finish = base
    result.offered = len(times)
    for klass in spec.traffic.classes:
        result.latencies.setdefault(klass, [])
    for index, offset in enumerate(times):
        depart = base + offset
        kernel.run_until(depart)
        source = sources[index % len(sources)]
        orb = world.orb(source)
        klass = labels[index]
        target = deployment.route_least_backlog(None, depart)
        request = Request(
            target, operation, args,
            service_contexts={CLASS_CONTEXT: klass},
        )
        wire = giop.encode_request(request)
        depart += orb.marshal_cost(len(wire))
        flow = FlowRecord(
            flow_id=f"{source}:{index:05d}",
            klass=klass,
            src=source,
            dst=target.profile.host,
            nbytes=len(wire),
            start=base + offset,
            end=base + offset,
        )
        try:
            reply_wire, finish = orb.round_trip(target.profile.host, wire, depart)
            finish += orb.marshal_cost(len(reply_wire))
            reply = giop.decode_reply(reply_wire)
            flow.end = finish
            flow.nbytes += len(reply_wire)
            if reply.exception is not None:
                result.failures += 1
                flow.drops = 1
                flow.status = "failed"
            else:
                result.served += 1
                result.latencies[klass].append(finish - (base + offset))
            last_finish = max(last_finish, finish)
        except SystemException:
            result.failures += 1
            flow.drops = 1
            flow.status = "failed"
        result.exporter.add(flow)
    clock.advance_to(last_finish)
    if clock.now < base + spec.duration:
        kernel.run_until(base + spec.duration)  # let the campaign finish
    result.elapsed = clock.now - base
    return result


def _run_txn(spec: Spec, deployment: Deployment) -> ScenarioResult:
    """Paced transactions through the stub/mediator/module path."""
    world = deployment.world
    result = ScenarioResult(spec.name, deployment.stack.name, spec.tier)
    times = arrival_times(spec)
    labels = _classify(spec, len(times))
    sources = spec.traffic.sources
    stubs = {source: deployment.make_txn_stub(source) for source in sources}
    calls = spec.traffic.txn_calls
    clock = world.clock
    kernel = world.kernel
    base = clock.now
    result.offered = len(times)
    for klass in spec.traffic.classes:
        result.latencies.setdefault(klass, [])
    primary_host = deployment.member_iors[0].profile.host
    for index, offset in enumerate(times):
        arrival = base + offset
        if arrival > clock.now:
            kernel.run_until(arrival)
        source = sources[index % len(sources)]
        stub = stubs[source]
        klass = labels[index]
        started = clock.now
        retries_before = COUNTERS.rel_retries
        ok = True
        try:
            for call in range(calls - 1):
                stub.process(f"{index}.{call}")
            stub.commit(f"txn{index}")
        except SystemException:
            ok = False
        txn_retries = COUNTERS.rel_retries - retries_before
        result.retries += txn_retries
        if ok:
            result.served += 1
            result.latencies[klass].append(clock.now - started)
        else:
            result.failures += 1
        result.exporter.add(
            FlowRecord(
                flow_id=f"{source}:txn{index:05d}",
                klass=klass,
                src=source,
                dst=primary_host,
                nbytes=spec.traffic.payload * calls,
                start=arrival,
                end=clock.now,
                requests=calls,
                drops=0 if ok else 1,
                retries=txn_retries,
                status="ok" if ok else "failed",
            )
        )
    if clock.now < base + spec.duration:
        kernel.run_until(base + spec.duration)  # let the campaign finish
    result.elapsed = clock.now - base
    result.duplicate_commits = deployment.duplicate_commits()
    return result


def _run_shard(spec: Spec, stack_name: str, shards: int) -> ScenarioResult:
    """The ON/OFF handler program on the sharded kernel."""
    from repro.netsim.parallel.kernel import ShardedKernel
    from repro.scenario import shardtraffic

    topology = shardtraffic.topology_from_spec(spec)
    kernel = ShardedKernel(topology, shards=shards, seed=spec.seed, trace=True)
    shardtraffic.schedule_traffic(kernel, spec)
    kernel.run()
    result = ScenarioResult(spec.name, stack_name, spec.tier)
    flows = flows_from_trace(kernel.trace_entries())
    result.exporter.extend(flows)
    result.offered = len(flows)
    result.served = sum(1 for flow in flows if flow.status == "ok")
    result.failures = result.offered - result.served
    result.elapsed = spec.duration
    result.kernel_stats = kernel.stats()
    klass = sorted(spec.traffic.classes)[0]
    result.latencies[klass] = [flow.duration() for flow in flows]
    return result


# -- SLO judgement ---------------------------------------------------------


def evaluate_slo(
    spec: Spec, result: ScenarioResult, reliability: bool
) -> List[str]:
    """The spec's SLO clauses against one result; [] means pass.

    Latency/goodput clauses marked ``requires_reliability`` only bind
    on stacks that run the reliability layer — a chaos scenario is
    *expected* to hurt a bare stack; the invariants (duplicate
    commits) bind everywhere.
    """
    slo = spec.slo
    violations: List[str] = []
    performance_binds = not slo.requires_reliability or reliability
    if performance_binds:
        merged = ClosedLoopResult(result.all_latencies(), 0, result.elapsed)
        if slo.p95_ms is not None and merged.count:
            p95 = merged.p95() * 1e3
            if p95 > slo.p95_ms:
                violations.append(
                    f"p95 latency {p95:.3f}ms exceeds SLO {slo.p95_ms}ms"
                )
        if slo.p99_ms is not None and merged.count:
            p99 = merged.p99() * 1e3
            if p99 > slo.p99_ms:
                violations.append(
                    f"p99 latency {p99:.3f}ms exceeds SLO {slo.p99_ms}ms"
                )
        if slo.goodput_floor is not None:
            contract = slo.contract_ms / 1e3 if slo.contract_ms else None
            goodput = result.goodput(contract)
            if goodput < slo.goodput_floor:
                within = (
                    f" within {slo.contract_ms}ms" if slo.contract_ms else ""
                )
                violations.append(
                    f"goodput {goodput:.4f}{within} below floor "
                    f"{slo.goodput_floor}"
                )
        if slo.max_failure_ratio is not None and result.offered:
            ratio = result.failures / result.offered
            if ratio > slo.max_failure_ratio:
                violations.append(
                    f"failure ratio {ratio:.4f} exceeds cap "
                    f"{slo.max_failure_ratio}"
                )
    if slo.zero_duplicate_commits and result.duplicate_commits:
        violations.append(
            f"{result.duplicate_commits} non-idempotent commit(s) executed "
            "more than once"
        )
    if slo.min_flows is not None and len(result.exporter) < slo.min_flows:
        violations.append(
            f"only {len(result.exporter)} flow(s) exported; SLO requires "
            f"at least {slo.min_flows}"
        )
    return violations


# -- entry point -------------------------------------------------------------


def run_scenario(
    spec: Spec,
    stack: Optional[StackConfig] = None,
    shards: int = 1,
) -> ScenarioResult:
    """Run one scenario under one stack; returns the judged result."""
    if spec.tier == "shard":
        name = stack.name if stack is not None else "spec"
        result = _run_shard(spec, name, shards)
        reliability = False
    else:
        deployment = build_deployment(spec, stack)
        if spec.traffic.mode == "txn":
            result = _run_txn(spec, deployment)
        else:
            result = _run_open(spec, deployment)
        reliability = deployment.stack.reliability
    result.campaign_digest = spec.campaign().digest()
    result.violations = evaluate_slo(spec, result, reliability)
    return result
