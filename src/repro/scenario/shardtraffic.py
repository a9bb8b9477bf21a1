"""The shard-tier traffic program: ON/OFF sessions as handler events.

The same harpoon-style heavy-tailed sessions
(:mod:`repro.scenario.traffic`) expressed against the parallel
kernel's handler API, so a scenario spec with ``tier = "shard"`` runs
unchanged on the sharded kernel (any shard count, inline or process
backend; one shard is the serial fallback, drained by the same barrier
loop) or on a plain event kernel through
:class:`~repro.netsim.parallel.shard.SerialScenarioDriver`.

Determinism across shard counts is the whole point, so the program
follows the two rules the sharded kernel imposes:

- **all randomness is drawn in ``boot``** from the per-host stream
  (seeded by ``(seed, host)`` only): the entire session plan — starts,
  sizes, servers — exists before the first probe fires, so the draw
  order cannot depend on how events from different hosts interleave;
- **flows are recorded on the source host** via ``ctx.record`` with
  shard-independent ids, and read back from the kernel's canonically
  sorted trace by :func:`repro.scenario.flowexport.flows_from_trace` —
  never from per-host state, which the process backend does not
  return.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.netsim.parallel.plan import LinkSpec, TopologySpec
from repro.netsim.parallel.shard import ShardContext
from repro.scenario.flowexport import TRACE_TAG
from repro.scenario.traffic import bounded_pareto

__all__ = ["shard_config", "schedule_traffic", "topology_from_spec"]

#: Ack payload size (bytes): a thin GIOP-reply-sized frame.
ACK_BYTES = 64


def topology_from_spec(spec: Any) -> TopologySpec:
    """The picklable topology of a spec (hosts, cohorts, clusters)."""
    hosts: List[str] = list(spec.host_names())
    links: List[LinkSpec] = [
        LinkSpec(link.a, link.b, link.latency, link.bandwidth_bps)
        for link in spec.links
    ]
    for cohort in spec.cohorts:
        links.extend(
            LinkSpec(client, cohort.gateway, cohort.latency, cohort.bandwidth_bps)
            for client in cohort.client_names()
        )
    if spec.clusters is not None:
        links.extend(spec.clusters.layout()[1])
    return TopologySpec(hosts, links)


def shard_config(spec: Any) -> Dict[str, Any]:
    """Plain-data (picklable) per-host parameters from a spec."""
    traffic = spec.traffic
    return {
        "servers": list(spec.group.hosts),
        "duration": float(spec.duration),
        "burst_rate": float(traffic.burst_rate),
        "on_alpha": float(traffic.on_alpha),
        "on_min": float(traffic.on_min),
        "on_max": float(traffic.on_max),
        "off_mu": float(traffic.off_mu),
        "off_sigma": float(traffic.off_sigma),
        "payload": int(traffic.payload),
        "klass": sorted(traffic.classes)[0],
    }


def schedule_traffic(kernel: Any, spec: Any) -> None:
    """Seed ``boot`` on every traffic source (pre-run, time zero)."""
    cfg = shard_config(spec)
    for host in spec.traffic.sources:
        kernel.schedule_at(0.0, host, boot, cfg)


# -- handlers (module-level: spawn-safe) --------------------------------


def boot(ctx: ShardContext, cfg: Dict[str, Any]) -> None:
    """Draw the host's whole session plan and schedule every request.

    Everything random happens here, from the per-host stream, before
    any cross-host event can interleave — the invariant that makes the
    trace identical at every shard count.
    """
    rng = ctx.rng()
    duration = cfg["duration"]
    gap = 1.0 / cfg["burst_rate"]
    servers = cfg["servers"]
    payload = cfg["payload"]
    state = ctx.state
    state["flows"] = {}
    now = rng.lognormvariate(cfg["off_mu"], cfg["off_sigma"])
    session = 0
    while now < duration:
        size = max(
            1,
            round(
                bounded_pareto(
                    rng.random(), cfg["on_alpha"], cfg["on_min"], cfg["on_max"]
                )
            ),
        )
        dst = servers[rng.randrange(len(servers))]
        requests = 0
        for index in range(size):
            at = now + index * gap
            if at >= duration:
                break
            requests += 1
        if requests:
            flow_id = f"{ctx.host}:{session:04d}"
            state["flows"][flow_id] = {
                "dst": dst,
                "klass": cfg["klass"],
                "start": now,
                "expected": requests,
                "acked": 0,
                "nbytes": requests * payload,
            }
            for index in range(requests):
                ctx.schedule(
                    now + index * gap,
                    ctx.host,
                    probe_send,
                    (flow_id, dst, payload),
                )
            session += 1
        now += size * gap
        now += rng.lognormvariate(cfg["off_mu"], cfg["off_sigma"])


def probe_send(ctx: ShardContext, payload: Any) -> None:
    """One request departs: ship it to the flow's server."""
    flow_id, dst, nbytes = payload
    ctx.send(dst, probe, (ctx.host, flow_id), nbytes=nbytes)


def probe(ctx: ShardContext, payload: Any) -> None:
    """Server side: count the request, ack back to the source."""
    src, flow_id = payload
    state = ctx.state
    state["served"] = state.get("served", 0) + 1
    ctx.send(src, ack, flow_id, nbytes=ACK_BYTES)


def ack(ctx: ShardContext, flow_id: str) -> None:
    """Source side: the flow completes on its final ack."""
    flow = ctx.state["flows"][flow_id]
    flow["acked"] += 1
    if flow["acked"] == flow["expected"]:
        ctx.record(
            TRACE_TAG,
            flow_id,
            flow["klass"],
            flow["dst"],
            flow["nbytes"],
            flow["start"],
            ctx.now,
            flow["expected"],
            0,  # drops: the shard tier models a loss-free fabric
            0,  # retries: no reliability layer below the ORB tier
        )
