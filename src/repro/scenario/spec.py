"""Declarative scenario specs: topology, stacks, traffic, chaos, SLOs.

A :class:`Spec` is the whole experiment in one artifact, loadable from
a TOML file under ``scenarios/`` or a plain dict — the RAFDA move of
keeping distribution *policy* outside application logic.  The
configurator (:mod:`repro.scenario.configurator`) instantiates the
network, ORB bindings, replica groups, scheduler and control settings
from it; nothing about a scenario lives in code.

The dataclasses below *are* the schema: each field declares its
default, its check and, where it differs, its spec key once
(:mod:`repro.scenario.schema`), and one reader builds every section.
Checks that span fields live in :meth:`Spec.validate`.  Unknown keys,
ill-typed or out-of-range values, dangling host references and
overlapping chaos windows all fail at load time as a :class:`SpecError`
naming the offending field.
"""

from __future__ import annotations

import fnmatch
import inspect
import os
from dataclasses import InitVar, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.codecs import CODECS
from repro.netsim.parallel.plan import LinkSpec as TopologyLink
from repro.netsim.parallel.plan import cluster_layout
from repro.scenario.chaos import Campaign, ChaosError
from repro.scenario.schema import (
    Invalid, boolean, choice, count, declare, declared, host_list, integer,
    interval, mapping, mbps, natural, non_negative, positive, read, real, rows,
    string, table_of, tables,
)
from repro.sched.scheduler import QoSClass

__all__ = [
    "CohortSpec",
    "ClusterSpec",
    "GroupSpec",
    "HostSpec",
    "LinkSpec",
    "ReliabilitySpec",
    "SchedSpec",
    "SLOSpec",
    "Spec",
    "SpecError",
    "TrafficSpec",
    "FluidSpec",
    "load_spec",
]

TRAFFIC_KINDS = ("poisson", "uniform", "onoff", "diurnal", "flash_crowd")
TRAFFIC_MODES = ("open", "txn")
SCHED_POLICIES = ("fifo", "priority", "wfq")
TIERS = ("orb", "shard")


class SpecError(ValueError):
    """A scenario spec that cannot be instantiated as written."""


# -- topology -------------------------------------------------------------


@declared
class HostSpec:
    name: str = declare(string)
    cpu_factor: float = declare(positive, 1.0)


@declared
class LinkSpec:
    a: str = declare(string)
    b: str = declare(string)
    latency: float = declare(non_negative, 0.0005)
    bandwidth_bps: float = declare(mbps, 100e6, key="bandwidth_mbps")
    loss_rate: float = declare(interval("[0, 1)"), 0.0)


@declared
class CohortSpec:
    """``clients`` hosts named ``<name>00..`` behind one gateway link.

    A slow-link cohort is a cohort with high ``latency`` / low
    ``bandwidth_bps``; a regional cohort is one whose gateway sits on
    the far side of a partitionable trunk.
    """

    name: str = declare(string)
    clients: int = declare(count)
    gateway: str = declare(string)
    latency: float = declare(non_negative, 0.0005)
    bandwidth_bps: float = declare(mbps, 100e6, key="bandwidth_mbps")

    def client_names(self) -> List[str]:
        return [f"{self.name}{i:02d}" for i in range(self.clients)]


@declared
class ClusterSpec:
    """Shorthand for the clustered soak topology (shard-tier friendly)."""

    clusters: int = declare(count, 4)
    hosts_per_cluster: int = declare(count, 4)
    intra_latency: float = declare(non_negative, 0.0005)
    inter_latency: float = declare(positive, 0.004)
    bandwidth_bps: float = declare(mbps, 100e6, key="bandwidth_mbps")

    def layout(self) -> Tuple[List[str], List[TopologyLink]]:
        """Host names and links, see :func:`cluster_layout`."""
        return cluster_layout(
            self.clusters, self.hosts_per_cluster,
            self.intra_latency, self.inter_latency, self.bandwidth_bps,
        )


@declared
class LanSpec:
    """``[topology.lan]``: hosts meshed pairwise by identical links."""

    hosts: List[str] = declare(host_list)
    latency: float = declare(non_negative, 0.0005)
    bandwidth_bps: float = declare(mbps, 100e6, key="bandwidth_mbps")


@declared
class TopologySection:
    """``[topology]`` as written; :class:`Spec` keeps it expanded."""

    hosts: List[HostSpec] = declare(rows(HostSpec, bare="name"), factory=list)
    lan: Optional[LanSpec] = declare(table_of(LanSpec), None)
    links: List[LinkSpec] = declare(rows(LinkSpec), factory=list)
    cohorts: List[CohortSpec] = declare(rows(CohortSpec), factory=list)
    clusters: Optional[ClusterSpec] = declare(table_of(ClusterSpec), None)


# -- stacks ---------------------------------------------------------------


@declared
class GroupSpec:
    name: str = declare(string, "svc")
    hosts: List[str] = declare(host_list, factory=list)
    service_time: float = declare(positive, 0.004)


#: What a ``[sched.classes.<name>]`` table may set: ``QoSClass``'s parameters.
QOS_CLASS_KEYS = frozenset(inspect.signature(QoSClass).parameters) - {"name"}


def qos_class_params(where: str, value: Any) -> Dict[str, Any]:
    """A class table, passed as ``QoSClass(name, **params)`` at build time."""
    params = mapping()(where, value)
    for key in params:
        if key not in QOS_CLASS_KEYS:
            raise Invalid(
                f"{where}.{key} is not a QoSClass parameter; "
                f"allowed: {sorted(QOS_CLASS_KEYS)}"
            )
    return params


@declared
class SchedSpec:
    policy: str = declare(choice(*SCHED_POLICIES), "fifo")
    max_depth: int = declare(count, 10_000)
    classes: Dict[str, Dict[str, Any]] = declare(
        mapping(qos_class_params), factory=dict
    )


@declared
class ReliabilitySpec:
    enabled: bool = declare(boolean, False)
    max_retries: int = declare(natural, 3)
    base_backoff: float = declare(positive, 0.0005)
    jitter: float = declare(non_negative, 0.0)
    breaker_threshold: int = declare(count, 8)
    breaker_cooldown: float = declare(positive, 0.002)


@declared
class ModuleSpec:
    #: Only compression stacks are spec-driven today.
    kind: str = declare(choice("compression"), "compression")
    codec: str = declare(choice(*CODECS), "rle")


@declared
class FluidSpec:
    n_clients: int = declare(count, 10_000)
    src: str = declare(string, "")
    dst: str = declare(string, "")
    flowlets_per_client: float = declare(positive, 0.05)
    max_flowlets: int = declare(count, 50_000)


# -- traffic --------------------------------------------------------------


@declared
class TrafficSpec:
    kind: str = declare(choice(*TRAFFIC_KINDS), "poisson")
    mode: str = declare(choice(*TRAFFIC_MODES), "open")
    rate: float = declare(positive, 100.0)
    sources: List[str] = declare(host_list, factory=lambda: ["client"])
    operation: str = declare(string, "busy_work")
    units: int = declare(natural, 1)
    payload: int = declare(count, 64)
    classes: Dict[str, float] = declare(mapping(real), factory=lambda: {"std": 1.0})
    # onoff
    onoff_sources: int = declare(count, 4)
    burst_rate: float = declare(positive, 400.0)
    on_alpha: float = declare(positive, 1.5)
    on_min: float = declare(positive, 2.0)
    on_max: float = declare(positive, 20_000.0)
    off_mu: float = declare(real, -3.0)
    off_sigma: float = declare(non_negative, 0.7)
    # diurnal
    amplitude: float = declare(interval("[0, 1)"), 0.6)
    period: Optional[float] = declare(positive, None)
    phase: float = declare(real, 0.0)
    # flash crowd
    base_rate: float = declare(positive, 100.0)
    peak_rate: float = declare(positive, 400.0)
    ramp_at: float = declare(non_negative, 0.5)
    ramp: float = declare(non_negative, 0.2)
    hold: float = declare(non_negative, 0.3)
    decay: float = declare(non_negative, 0.3)
    # txn
    txn_calls: int = declare(count, 5)


# -- SLOs -----------------------------------------------------------------


@declared
class SLOSpec:
    """Per-scenario service-level assertions the matrix enforces."""

    p95_ms: Optional[float] = declare(positive, None)
    p99_ms: Optional[float] = declare(positive, None)
    #: Fraction of offered work that must complete (within contract_ms
    #: when that is set, at all otherwise).
    goodput_floor: Optional[float] = declare(interval("(0, 1]"), None)
    contract_ms: Optional[float] = declare(positive, None)
    max_failure_ratio: Optional[float] = declare(interval("[0, 1]"), None)
    zero_duplicate_commits: bool = declare(boolean, True)
    #: Latency/goodput clauses only bind on stacks with reliability on
    #: (chaos scenarios are *expected* to fail without recovery).
    requires_reliability: bool = declare(boolean, False)
    min_flows: Optional[int] = declare(count, None)


# -- the spec ---------------------------------------------------------------


@declared
class Spec:
    name: str = declare(string)
    seed: int = declare(integer, 0)
    duration: float = declare(positive, 1.0)
    tier: str = declare(choice(*TIERS), "orb")
    # Expanded from ``[topology]`` by ``__post_init__``.
    hosts: List[HostSpec] = field(default_factory=list)
    links: List[LinkSpec] = field(default_factory=list)
    cohorts: List[CohortSpec] = field(default_factory=list)
    clusters: Optional[ClusterSpec] = None
    group: GroupSpec = declare(table_of(GroupSpec), factory=GroupSpec)
    sched: SchedSpec = declare(table_of(SchedSpec), factory=SchedSpec)
    reliability: ReliabilitySpec = declare(
        table_of(ReliabilitySpec), factory=ReliabilitySpec
    )
    modules: List[ModuleSpec] = declare(rows(ModuleSpec), factory=list)
    traffic: TrafficSpec = declare(table_of(TrafficSpec), factory=TrafficSpec)
    fluid: Optional[FluidSpec] = declare(table_of(FluidSpec), None)
    #: Raw ``[[chaos]]`` tables; :meth:`campaign` reads them row by row.
    chaos: List[Dict[str, Any]] = declare(tables, factory=list)
    slo: SLOSpec = declare(table_of(SLOSpec), factory=SLOSpec)
    topology: InitVar[Optional[TopologySection]] = declare(
        table_of(TopologySection), None
    )

    def __post_init__(self, topology: Optional[TopologySection]) -> None:
        if topology is None:
            return
        lan = topology.lan or LanSpec([])
        known = {host.name for host in topology.hosts}
        self.hosts = topology.hosts + [
            HostSpec(name) for name in dict.fromkeys(lan.hosts) if name not in known
        ]
        self.links = [
            LinkSpec(a, b, lan.latency, lan.bandwidth_bps)
            for i, a in enumerate(lan.hosts) for b in lan.hosts[i + 1:]
        ] + topology.links
        self.cohorts, self.clusters = topology.cohorts, topology.clusters

    # -- derived views -----------------------------------------------------

    def host_names(self) -> List[str]:
        """Every host the spec declares, shorthands expanded."""
        names = [host.name for host in self.hosts]
        for cohort in self.cohorts:
            names.extend(cohort.client_names())
        if self.clusters is not None:
            names.extend(self.clusters.layout()[0])
        return names

    def expand_hosts(self, patterns: Sequence[str], section: str) -> List[str]:
        """Resolve host names, expanding ``*``/``?`` globs, order-stable."""
        known = self.host_names()
        result: List[str] = []
        for pattern in patterns:
            matches = sorted(fnmatch.filter(known, pattern))
            if not matches:
                raise SpecError(
                    f"{section}: {pattern!r} matches no host "
                    f"(known: {sorted(known)})"
                )
            result.extend(m for m in matches if m not in result)
        return result

    def campaign(self) -> Campaign:
        """The expanded, validated chaos campaign (may be empty)."""
        try:
            return Campaign.from_dicts(
                self.chaos, seed=self.seed, hosts=self.host_names(),
                duration=self.duration,
            )
        except ChaosError as error:
            raise SpecError(f"{self.name}: {error}") from error

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, Any], name: Optional[str] = None) -> "Spec":
        if isinstance(data, dict) and name is not None:
            data = {"name": name, **data}
        spec = read(cls, "spec", data, SpecError)
        spec.validate()
        return spec

    @classmethod
    def from_toml(cls, path: str) -> "Spec":
        try:
            import tomllib
        except ImportError as error:  # pragma: no cover - py<3.11 only
            raise SpecError(
                "TOML specs need Python 3.11+ (tomllib); load a dict via "
                "Spec.from_dict instead"
            ) from error
        with open(path, "rb") as handle:
            try:
                data = tomllib.load(handle)
            except tomllib.TOMLDecodeError as error:
                raise SpecError(f"{path}: invalid TOML: {error}") from error
        default_name = os.path.splitext(os.path.basename(path))[0]
        return cls.from_dict(data, name=default_name)

    # -- whole-spec validation -----------------------------------------------

    def validate(self) -> None:
        """The checks that span fields; each field checked itself on read."""
        names = self.host_names()
        if not names:
            raise SpecError(f"{self.name}: topology declares no hosts")
        seen = set()
        for name in names:
            if name in seen:
                raise SpecError(f"{self.name}: duplicate host name {name!r}")
            seen.add(name)
        for link in self.links:
            for endpoint in (link.a, link.b):
                if endpoint not in seen:
                    raise SpecError(
                        f"{self.name}: link {link.a!r}<->{link.b!r} references "
                        f"unknown host {endpoint!r} (known: {sorted(seen)})"
                    )
            if link.a == link.b:
                raise SpecError(f"{self.name}: link connects {link.a!r} to itself")
        for cohort in self.cohorts:
            if cohort.gateway not in seen:
                raise SpecError(
                    f"{self.name}: cohort {cohort.name!r} gateway "
                    f"{cohort.gateway!r} is not a declared host"
                )
        if not self.group.hosts:
            raise SpecError(
                f"{self.name}: group.hosts must name at least one serving host"
            )
        self.group.hosts = self.expand_hosts(self.group.hosts, "group.hosts")
        traffic = self.traffic
        traffic.sources = self.expand_hosts(traffic.sources, "traffic.sources")
        overlap = set(traffic.sources) & set(self.group.hosts)
        if overlap:
            raise SpecError(
                f"{self.name}: hosts {sorted(overlap)} are both traffic "
                "sources and group servers; separate them"
            )
        if not traffic.classes or min(traffic.classes.values()) <= 0.0:
            raise SpecError("traffic.classes shares must all be positive")
        if traffic.on_max <= traffic.on_min:
            raise SpecError(
                f"traffic.on_max ({traffic.on_max}) must exceed on_min "
                f"({traffic.on_min})"
            )
        if traffic.peak_rate < traffic.base_rate:
            raise SpecError(
                f"traffic.peak_rate ({traffic.peak_rate}) must be at least "
                f"base_rate ({traffic.base_rate})"
            )
        if self.fluid is not None:
            if not self.fluid.src or not self.fluid.dst:
                raise SpecError("fluid: needs both 'src' and 'dst' hosts")
            for name, value in (("src", self.fluid.src), ("dst", self.fluid.dst)):
                if value not in seen:
                    raise SpecError(
                        f"{self.name}: fluid.{name} {value!r} is not a "
                        "declared host"
                    )
        if self.tier == "shard":
            if traffic.kind != "onoff":
                raise SpecError(
                    f"{self.name}: the shard tier runs the ON/OFF handler "
                    f"program only; traffic.kind {traffic.kind!r} needs "
                    "tier = 'orb'"
                )
            for section, present in (
                ("chaos", bool(self.chaos)),
                ("fluid", self.fluid is not None),
                ("modules", bool(self.modules)),
                ("reliability", self.reliability.enabled),
            ):
                if present:
                    raise SpecError(
                        f"{self.name}: {section} requires the orb tier "
                        "(tier = 'orb'); the shard tier drives bare handler "
                        "traffic"
                    )
        # Expanding the campaign validates windows and host references.
        self.campaign()


def load_spec(path_or_dict: Any, name: Optional[str] = None) -> Spec:
    """Load a spec from a TOML path or a plain dict."""
    if isinstance(path_or_dict, dict):
        return Spec.from_dict(path_or_dict, name=name)
    return Spec.from_toml(str(path_or_dict))
