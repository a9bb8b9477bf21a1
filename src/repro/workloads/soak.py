"""Deterministic multi-host soak scenario for the sharded kernel.

The scenario is written against the parallel kernel's handler API
(module-level functions taking ``(ctx, payload)``, see
:mod:`repro.netsim.parallel`), which makes it runnable unchanged on

- the sharded kernel, inline or process backend;
- its serial fallback (one shard runtime owning every host); and
- *any* serial event kernel through :class:`SerialScenarioDriver`.

Shape: ``clusters`` islands of ``hosts_per_cluster`` hosts, densely
meshed inside (low latency) and joined by a sparse ring of
higher-latency trunks
(:func:`~repro.netsim.parallel.plan.cluster_layout`, the layout the
scenario specs' ``[clusters]`` section shares).  The trunk latency is the lookahead the planner
finds.  Every host heartbeats (thin timer events that keep the heap
deep), ticks periodically, and each tick fires probes at random peers
— mostly cluster-local, sometimes across a trunk — which ack back.
All randomness is drawn from per-host streams seeded by ``(seed,
host)`` only, so the event set is identical no matter how hosts are
sharded.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.netsim.parallel.plan import LinkSpec, TopologySpec, cluster_layout
from repro.netsim.parallel.shard import SerialScenarioDriver, ShardContext

__all__ = [
    "SerialScenarioDriver",
    "schedule_soak",
    "soak_config",
    "soak_topology",
    "zero_lookahead_topology",
]


# -- topologies --------------------------------------------------------


def soak_topology(
    clusters: int = 8,
    hosts_per_cluster: int = 8,
    intra_latency: float = 0.0005,
    inter_latency: float = 0.004,
    bandwidth_bps: float = 100e6,
) -> TopologySpec:
    """Clustered topology with a natural min-cut along the trunks."""
    if clusters < 1 or hosts_per_cluster < 1:
        raise ValueError("need at least one cluster and one host")
    if clusters > 99:
        raise ValueError("host naming supports at most 99 clusters")
    return TopologySpec(*cluster_layout(
        clusters, hosts_per_cluster, intra_latency, inter_latency, bandwidth_bps
    ))


def zero_lookahead_topology(hosts: int = 8) -> TopologySpec:
    """A zero-latency full mesh: *every* cut has zero lookahead.

    A single zero-latency link elsewhere would not do — the planner
    avoids cutting heavy (tightly coupled) links, so only a topology
    where each possible cut contains one forces the serial fallback.
    """
    names = [f"c00h{h:02d}" for h in range(hosts)]
    links = [
        LinkSpec(a, b, 0.0)
        for i, a in enumerate(names)
        for b in names[i + 1:]
    ]
    return TopologySpec(names, links)


# -- configuration -----------------------------------------------------


def soak_config(
    topology: TopologySpec,
    duration: float = 1.0,
    period: float = 0.004,
    fanout: int = 2,
    remote_ratio: float = 0.3,
    nbytes: int = 2000,
    heartbeats: int = 0,
) -> Dict[str, Any]:
    """Plain-data scenario parameters shared by every host."""
    return {
        "peers": list(topology.hosts),
        "until": float(duration),
        "period": float(period),
        "fanout": int(fanout),
        "remote_ratio": float(remote_ratio),
        "nbytes": int(nbytes),
        "heartbeats": int(heartbeats),
    }


def schedule_soak(kernel: Any, cfg: Dict[str, Any]) -> None:
    """Seed the scenario onto anything with ``schedule_at(t, host, fn, p)``."""
    for host in cfg["peers"]:
        kernel.schedule_at(0.0, host, boot, cfg)


# -- handlers (module-level: spawn-safe) -------------------------------


def boot(ctx: ShardContext, cfg: Dict[str, Any]) -> None:
    """Per-host setup: stash config, start heartbeats and the tick loop."""
    state = ctx.state
    state["cfg"] = cfg
    state["ticks"] = 0
    state["probes"] = 0
    state["acks"] = 0
    state["beats"] = 0
    prefix = ctx.host[:3]
    state["local_peers"] = [
        p for p in cfg["peers"] if p.startswith(prefix) and p != ctx.host
    ]
    rng = ctx.rng()
    until = cfg["until"]
    for _ in range(cfg["heartbeats"]):
        ctx.schedule(rng.random() * until, ctx.host, heartbeat)
    ctx.schedule(rng.random() * cfg["period"], ctx.host, tick)


def heartbeat(ctx: ShardContext, payload: Any) -> None:
    """A thin timer: the bulk of the heap traffic in deep-soak runs."""
    ctx.state["beats"] += 1


def tick(ctx: ShardContext, payload: Any) -> None:
    state = ctx.state
    cfg = state["cfg"]
    state["ticks"] += 1
    rng = ctx.rng()
    peers = cfg["peers"]
    local = state["local_peers"]
    nbytes = cfg["nbytes"]
    for _ in range(cfg["fanout"]):
        if rng.random() < cfg["remote_ratio"]:
            dst = peers[rng.randrange(len(peers))]
        elif local:
            dst = local[rng.randrange(len(local))]
        else:
            dst = ctx.host
        if dst != ctx.host:
            ctx.send(dst, probe, ctx.host, nbytes=nbytes)
    now = ctx.now
    if now < cfg["until"]:
        ctx.schedule(
            cfg["period"] * (0.9 + 0.2 * rng.random()), ctx.host, tick
        )


def probe(ctx: ShardContext, src: str) -> None:
    ctx.state.setdefault("probes", 0)
    ctx.state["probes"] += 1
    ctx.send(src, ack, None, nbytes=64)


def ack(ctx: ShardContext, payload: Any) -> None:
    ctx.state.setdefault("acks", 0)
    ctx.state["acks"] += 1


# :class:`SerialScenarioDriver` (re-exported above) lives with the
# shard runtime in :mod:`repro.netsim.parallel.shard`; it is what runs
# this scenario on a plain serial kernel.
