"""Declarative scenario specs: topology, stacks, traffic, chaos, SLOs.

A :class:`Spec` is the whole experiment in one artifact, loadable from
a TOML file under ``scenarios/`` or a plain dict — the RAFDA move of
keeping distribution *policy* outside application logic.  The
configurator (:mod:`repro.scenario.configurator`) instantiates the
network, ORB bindings, replica groups, scheduler and control settings
from it; nothing about a scenario lives in code.

Validation is strict and the errors are actionable: dangling host
references, negative rates, overlapping chaos windows and unknown keys
all fail at load time with a message naming the offending field.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.netsim.parallel.plan import LinkSpec as TopologyLink
from repro.netsim.parallel.plan import cluster_layout
from repro.scenario.chaos import Campaign, ChaosError

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


def _check_keys(section: str, data: Dict[str, Any], allowed: Sequence[str]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SpecError(
            f"{section}: unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _positive(section: str, name: str, value: float) -> float:
    value = float(value)
    if value <= 0.0:
        raise SpecError(f"{section}.{name} must be positive, got {value}")
    return value


def _non_negative(section: str, name: str, value: float) -> float:
    value = float(value)
    if value < 0.0:
        raise SpecError(f"{section}.{name} must be non-negative, got {value}")
    return value


# -- topology -------------------------------------------------------------


@dataclass
class HostSpec:
    name: str
    cpu_factor: float = 1.0


@dataclass
class LinkSpec:
    a: str
    b: str
    latency: float = 0.0005
    bandwidth_bps: float = 100e6
    loss_rate: float = 0.0


@dataclass
class CohortSpec:
    """``clients`` hosts named ``<name>00..`` behind one gateway link.

    A slow-link cohort is a cohort with high ``latency`` / low
    ``bandwidth_bps``; a regional cohort is one whose gateway sits on
    the far side of a partitionable trunk.
    """

    name: str
    clients: int
    gateway: str
    latency: float = 0.0005
    bandwidth_bps: float = 100e6

    def client_names(self) -> List[str]:
        return [f"{self.name}{i:02d}" for i in range(self.clients)]


@dataclass
class ClusterSpec:
    """Shorthand for the clustered soak topology (shard-tier friendly)."""

    clusters: int = 4
    hosts_per_cluster: int = 4
    intra_latency: float = 0.0005
    inter_latency: float = 0.004
    bandwidth_bps: float = 100e6

    def layout(self) -> Tuple[List[str], List[TopologyLink]]:
        """Host names and links, see :func:`cluster_layout`."""
        return cluster_layout(
            self.clusters, self.hosts_per_cluster,
            self.intra_latency, self.inter_latency, self.bandwidth_bps,
        )


# -- stacks ---------------------------------------------------------------


@dataclass
class GroupSpec:
    name: str = "svc"
    hosts: List[str] = field(default_factory=list)
    service_time: float = 0.004


@dataclass
class SchedSpec:
    policy: str = "fifo"
    max_depth: int = 10_000
    classes: Dict[str, Dict[str, Any]] = field(default_factory=dict)


@dataclass
class ReliabilitySpec:
    enabled: bool = False
    max_retries: int = 3
    base_backoff: float = 0.0005
    jitter: float = 0.0
    breaker_threshold: int = 8
    breaker_cooldown: float = 0.002


@dataclass
class ModuleSpec:
    kind: str = "compression"
    codec: str = "rle"


@dataclass
class FluidSpec:
    n_clients: int = 10_000
    src: str = ""
    dst: str = ""
    flowlets_per_client: float = 0.05
    max_flowlets: int = 50_000


# -- traffic --------------------------------------------------------------


@dataclass
class TrafficSpec:
    kind: str = "poisson"
    mode: str = "open"
    rate: float = 100.0
    sources: List[str] = field(default_factory=lambda: ["client"])
    operation: str = "busy_work"
    units: int = 1
    payload: int = 64
    classes: Dict[str, float] = field(default_factory=lambda: {"std": 1.0})
    # onoff
    onoff_sources: int = 4
    burst_rate: float = 400.0
    on_alpha: float = 1.5
    on_min: float = 2.0
    on_max: float = 20_000.0
    off_mu: float = -3.0
    off_sigma: float = 0.7
    # diurnal
    amplitude: float = 0.6
    period: Optional[float] = None
    phase: float = 0.0
    # flash crowd
    base_rate: float = 100.0
    peak_rate: float = 400.0
    ramp_at: float = 0.5
    ramp: float = 0.2
    hold: float = 0.3
    decay: float = 0.3
    # txn
    txn_calls: int = 5


# -- SLOs -----------------------------------------------------------------


@dataclass
class SLOSpec:
    """Per-scenario service-level assertions the matrix enforces."""

    p95_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    #: Fraction of offered work that must complete (within contract_ms
    #: when that is set, at all otherwise).
    goodput_floor: Optional[float] = None
    contract_ms: Optional[float] = None
    max_failure_ratio: Optional[float] = None
    zero_duplicate_commits: bool = True
    #: Latency/goodput clauses only bind on stacks with reliability on
    #: (chaos scenarios are *expected* to fail without recovery).
    requires_reliability: bool = False
    min_flows: Optional[int] = None


# -- the spec ---------------------------------------------------------------


@dataclass
class Spec:
    name: str
    seed: int = 0
    duration: float = 1.0
    tier: str = "orb"
    hosts: List[HostSpec] = field(default_factory=list)
    links: List[LinkSpec] = field(default_factory=list)
    cohorts: List[CohortSpec] = field(default_factory=list)
    clusters: Optional[ClusterSpec] = None
    group: GroupSpec = field(default_factory=GroupSpec)
    sched: SchedSpec = field(default_factory=SchedSpec)
    reliability: ReliabilitySpec = field(default_factory=ReliabilitySpec)
    modules: List[ModuleSpec] = field(default_factory=list)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    fluid: Optional[FluidSpec] = None
    chaos: List[Dict[str, Any]] = field(default_factory=list)
    slo: SLOSpec = field(default_factory=SLOSpec)

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
            if any(ch in pattern for ch in "*?["):
                matches = sorted(fnmatch.filter(known, pattern))
                if not matches:
                    raise SpecError(
                        f"{section}: pattern {pattern!r} matches no host "
                        f"(known: {sorted(known)})"
                    )
                result.extend(m for m in matches if m not in result)
            else:
                if pattern not in known:
                    raise SpecError(
                        f"{section}: unknown host {pattern!r} "
                        f"(known: {sorted(known)})"
                    )
                if pattern not in result:
                    result.append(pattern)
        return result

    def campaign(self) -> Campaign:
        """The expanded, validated chaos campaign (may be empty)."""
        try:
            return Campaign.from_dicts(
                self.chaos,
                seed=self.seed,
                hosts=self.host_names(),
                duration=self.duration,
            )
        except ChaosError as error:
            raise SpecError(f"{self.name}: {error}") from error

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, Any], name: Optional[str] = None) -> "Spec":
        data = dict(data)
        _check_keys(
            "spec",
            data,
            [
                "name", "seed", "duration", "tier", "topology", "group",
                "sched", "reliability", "modules", "traffic", "fluid",
                "chaos", "slo",
            ],
        )
        spec_name = data.get("name", name)
        if not spec_name:
            raise SpecError("spec: missing 'name'")
        spec = cls(name=str(spec_name))
        spec.seed = int(data.get("seed", 0))
        spec.duration = _positive("spec", "duration", data.get("duration", 1.0))
        spec.tier = str(data.get("tier", "orb"))
        if spec.tier not in TIERS:
            raise SpecError(f"spec.tier must be one of {TIERS}: {spec.tier!r}")

        spec._parse_topology(data.get("topology", {}))
        spec._parse_group(data.get("group", {}))
        spec._parse_sched(data.get("sched", {}))
        spec._parse_reliability(data.get("reliability", {}))
        spec._parse_modules(data.get("modules", []))
        spec._parse_traffic(data.get("traffic", {}))
        spec._parse_fluid(data.get("fluid"))
        chaos = data.get("chaos", [])
        if not isinstance(chaos, list):
            raise SpecError("chaos: must be a list of event tables")
        spec.chaos = [dict(entry) for entry in chaos]
        spec._parse_slo(data.get("slo", {}))
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
        import os

        default_name = os.path.splitext(os.path.basename(path))[0]
        return cls.from_dict(data, name=default_name)

    # -- section parsers ----------------------------------------------------

    def _parse_topology(self, data: Dict[str, Any]) -> None:
        _check_keys(
            "topology", data, ["hosts", "links", "lan", "cohorts", "clusters"]
        )
        for entry in data.get("hosts", []):
            if isinstance(entry, str):
                self.hosts.append(HostSpec(entry))
            else:
                _check_keys("topology.hosts[]", entry, ["name", "cpu_factor"])
                self.hosts.append(
                    HostSpec(
                        entry["name"],
                        _positive(
                            "topology.hosts[]", "cpu_factor",
                            entry.get("cpu_factor", 1.0),
                        ),
                    )
                )
        lan = data.get("lan")
        if lan:
            _check_keys("topology.lan", lan, ["hosts", "latency", "bandwidth_mbps"])
            names = list(lan["hosts"])
            latency = _non_negative(
                "topology.lan", "latency", lan.get("latency", 0.0005)
            )
            bw = _positive(
                "topology.lan", "bandwidth_mbps", lan.get("bandwidth_mbps", 100.0)
            ) * 1e6
            known = {host.name for host in self.hosts}
            for name in names:
                if name not in known:
                    self.hosts.append(HostSpec(name))
                    known.add(name)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    self.links.append(LinkSpec(a, b, latency, bw))
        for entry in data.get("links", []):
            _check_keys(
                "topology.links[]", entry,
                ["a", "b", "latency", "bandwidth_mbps", "loss_rate"],
            )
            loss = float(entry.get("loss_rate", 0.0))
            if not 0.0 <= loss < 1.0:
                raise SpecError(
                    f"topology.links[] loss_rate must be in [0, 1): {loss}"
                )
            self.links.append(
                LinkSpec(
                    entry["a"],
                    entry["b"],
                    _non_negative(
                        "topology.links[]", "latency", entry.get("latency", 0.0005)
                    ),
                    _positive(
                        "topology.links[]", "bandwidth_mbps",
                        entry.get("bandwidth_mbps", 100.0),
                    ) * 1e6,
                    loss,
                )
            )
        for entry in data.get("cohorts", []):
            _check_keys(
                "topology.cohorts[]", entry,
                ["name", "clients", "gateway", "latency", "bandwidth_mbps"],
            )
            clients = int(entry.get("clients", 0))
            if clients < 1:
                raise SpecError(
                    f"topology.cohorts[] {entry.get('name')!r}: clients must "
                    f"be >= 1, got {clients}"
                )
            self.cohorts.append(
                CohortSpec(
                    entry["name"],
                    clients,
                    entry["gateway"],
                    _non_negative(
                        "topology.cohorts[]", "latency", entry.get("latency", 0.0005)
                    ),
                    _positive(
                        "topology.cohorts[]", "bandwidth_mbps",
                        entry.get("bandwidth_mbps", 100.0),
                    ) * 1e6,
                )
            )
        clusters = data.get("clusters")
        if clusters:
            _check_keys(
                "topology.clusters", clusters,
                ["clusters", "hosts_per_cluster", "intra_latency",
                 "inter_latency", "bandwidth_mbps"],
            )
            self.clusters = ClusterSpec(
                clusters=int(clusters.get("clusters", 4)),
                hosts_per_cluster=int(clusters.get("hosts_per_cluster", 4)),
                intra_latency=_non_negative(
                    "topology.clusters", "intra_latency",
                    clusters.get("intra_latency", 0.0005),
                ),
                inter_latency=_positive(
                    "topology.clusters", "inter_latency",
                    clusters.get("inter_latency", 0.004),
                ),
                bandwidth_bps=_positive(
                    "topology.clusters", "bandwidth_mbps",
                    clusters.get("bandwidth_mbps", 100.0),
                ) * 1e6,
            )
            if self.clusters.clusters < 1 or self.clusters.hosts_per_cluster < 1:
                raise SpecError(
                    "topology.clusters: need at least one cluster and one host"
                )

    def _parse_group(self, data: Dict[str, Any]) -> None:
        _check_keys("group", data, ["name", "hosts", "service_time"])
        self.group = GroupSpec(
            name=str(data.get("name", "svc")),
            hosts=list(data.get("hosts", [])),
            service_time=_positive(
                "group", "service_time", data.get("service_time", 0.004)
            ),
        )

    def _parse_sched(self, data: Dict[str, Any]) -> None:
        _check_keys("sched", data, ["policy", "max_depth", "classes"])
        policy = str(data.get("policy", "fifo"))
        if policy not in SCHED_POLICIES:
            raise SpecError(
                f"sched.policy must be one of {SCHED_POLICIES}: {policy!r}"
            )
        classes = {
            str(name): dict(params)
            for name, params in data.get("classes", {}).items()
        }
        self.sched = SchedSpec(
            policy=policy,
            max_depth=int(data.get("max_depth", 10_000)),
            classes=classes,
        )

    def _parse_reliability(self, data: Dict[str, Any]) -> None:
        _check_keys(
            "reliability", data,
            ["enabled", "max_retries", "base_backoff", "jitter",
             "breaker_threshold", "breaker_cooldown"],
        )
        self.reliability = ReliabilitySpec(
            enabled=bool(data.get("enabled", False)),
            max_retries=int(data.get("max_retries", 3)),
            base_backoff=_positive(
                "reliability", "base_backoff", data.get("base_backoff", 0.0005)
            ),
            jitter=_non_negative("reliability", "jitter", data.get("jitter", 0.0)),
            breaker_threshold=int(data.get("breaker_threshold", 8)),
            breaker_cooldown=_positive(
                "reliability", "breaker_cooldown",
                data.get("breaker_cooldown", 0.002),
            ),
        )

    def _parse_modules(self, entries: List[Dict[str, Any]]) -> None:
        for entry in entries:
            _check_keys("modules[]", entry, ["kind", "codec"])
            kind = str(entry.get("kind", "compression"))
            if kind != "compression":
                raise SpecError(
                    f"modules[].kind: only 'compression' stacks are "
                    f"spec-driven today, got {kind!r}"
                )
            self.modules.append(
                ModuleSpec(kind=kind, codec=str(entry.get("codec", "rle")))
            )

    def _parse_traffic(self, data: Dict[str, Any]) -> None:
        _check_keys(
            "traffic", data,
            ["kind", "mode", "rate", "sources", "operation", "units",
             "payload", "classes", "onoff_sources", "burst_rate", "on_alpha",
             "on_min", "on_max", "off_mu", "off_sigma", "amplitude", "period",
             "phase", "base_rate", "peak_rate", "ramp_at", "ramp", "hold",
             "decay", "txn_calls"],
        )
        kind = str(data.get("kind", "poisson"))
        if kind not in TRAFFIC_KINDS:
            raise SpecError(
                f"traffic.kind must be one of {TRAFFIC_KINDS}: {kind!r}"
            )
        mode = str(data.get("mode", "open"))
        if mode not in TRAFFIC_MODES:
            raise SpecError(
                f"traffic.mode must be one of {TRAFFIC_MODES}: {mode!r}"
            )
        classes = {
            str(name): float(share)
            for name, share in data.get("classes", {"std": 1.0}).items()
        }
        if not classes or any(share <= 0.0 for share in classes.values()):
            raise SpecError("traffic.classes shares must all be positive")
        traffic = TrafficSpec(kind=kind, mode=mode, classes=classes)
        traffic.rate = _positive("traffic", "rate", data.get("rate", 100.0))
        traffic.sources = list(data.get("sources", ["client"]))
        traffic.operation = str(data.get("operation", "busy_work"))
        traffic.units = int(data.get("units", 1))
        traffic.payload = int(
            _positive("traffic", "payload", data.get("payload", 64))
        )
        traffic.onoff_sources = int(data.get("onoff_sources", 4))
        traffic.burst_rate = _positive(
            "traffic", "burst_rate", data.get("burst_rate", 400.0)
        )
        traffic.on_alpha = _positive(
            "traffic", "on_alpha", data.get("on_alpha", 1.5)
        )
        traffic.on_min = _positive("traffic", "on_min", data.get("on_min", 2.0))
        traffic.on_max = _positive(
            "traffic", "on_max", data.get("on_max", 20_000.0)
        )
        if traffic.on_max <= traffic.on_min:
            raise SpecError(
                f"traffic.on_max ({traffic.on_max}) must exceed on_min "
                f"({traffic.on_min})"
            )
        traffic.off_mu = float(data.get("off_mu", -3.0))
        traffic.off_sigma = _non_negative(
            "traffic", "off_sigma", data.get("off_sigma", 0.7)
        )
        amplitude = float(data.get("amplitude", 0.6))
        if not 0.0 <= amplitude < 1.0:
            raise SpecError(
                f"traffic.amplitude must be in [0, 1): {amplitude}"
            )
        traffic.amplitude = amplitude
        period = data.get("period")
        traffic.period = (
            _positive("traffic", "period", period) if period is not None else None
        )
        traffic.phase = float(data.get("phase", 0.0))
        traffic.base_rate = _positive(
            "traffic", "base_rate", data.get("base_rate", 100.0)
        )
        traffic.peak_rate = _positive(
            "traffic", "peak_rate", data.get("peak_rate", 400.0)
        )
        if traffic.peak_rate < traffic.base_rate:
            raise SpecError(
                f"traffic.peak_rate ({traffic.peak_rate}) must be at least "
                f"base_rate ({traffic.base_rate})"
            )
        traffic.ramp_at = _non_negative(
            "traffic", "ramp_at", data.get("ramp_at", 0.5)
        )
        traffic.ramp = _non_negative("traffic", "ramp", data.get("ramp", 0.2))
        traffic.hold = _non_negative("traffic", "hold", data.get("hold", 0.3))
        traffic.decay = _non_negative("traffic", "decay", data.get("decay", 0.3))
        traffic.txn_calls = int(data.get("txn_calls", 5))
        if traffic.txn_calls < 1:
            raise SpecError(
                f"traffic.txn_calls must be >= 1, got {traffic.txn_calls}"
            )
        self.traffic = traffic

    def _parse_fluid(self, data: Optional[Dict[str, Any]]) -> None:
        if not data:
            self.fluid = None
            return
        _check_keys(
            "fluid", data,
            ["n_clients", "src", "dst", "flowlets_per_client", "max_flowlets"],
        )
        if "src" not in data or "dst" not in data:
            raise SpecError("fluid: needs both 'src' and 'dst' hosts")
        self.fluid = FluidSpec(
            n_clients=int(
                _positive("fluid", "n_clients", data.get("n_clients", 10_000))
            ),
            src=str(data["src"]),
            dst=str(data["dst"]),
            flowlets_per_client=_positive(
                "fluid", "flowlets_per_client",
                data.get("flowlets_per_client", 0.05),
            ),
            max_flowlets=int(
                _positive("fluid", "max_flowlets", data.get("max_flowlets", 50_000))
            ),
        )

    def _parse_slo(self, data: Dict[str, Any]) -> None:
        _check_keys(
            "slo", data,
            ["p95_ms", "p99_ms", "goodput_floor", "contract_ms",
             "max_failure_ratio", "zero_duplicate_commits",
             "requires_reliability", "min_flows"],
        )
        slo = SLOSpec()
        for name in ("p95_ms", "p99_ms", "contract_ms"):
            value = data.get(name)
            if value is not None:
                setattr(slo, name, _positive("slo", name, value))
        floor = data.get("goodput_floor")
        if floor is not None:
            floor = float(floor)
            if not 0.0 < floor <= 1.0:
                raise SpecError(
                    f"slo.goodput_floor must be in (0, 1]: {floor}"
                )
            slo.goodput_floor = floor
        ratio = data.get("max_failure_ratio")
        if ratio is not None:
            ratio = float(ratio)
            if not 0.0 <= ratio <= 1.0:
                raise SpecError(
                    f"slo.max_failure_ratio must be in [0, 1]: {ratio}"
                )
            slo.max_failure_ratio = ratio
        slo.zero_duplicate_commits = bool(data.get("zero_duplicate_commits", True))
        slo.requires_reliability = bool(data.get("requires_reliability", False))
        min_flows = data.get("min_flows")
        if min_flows is not None:
            slo.min_flows = int(_positive("slo", "min_flows", min_flows))
        self.slo = slo

    # -- whole-spec validation -----------------------------------------------

    def validate(self) -> None:
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
                raise SpecError(
                    f"{self.name}: link connects {link.a!r} to itself"
                )
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
        self.traffic.sources = self.expand_hosts(
            self.traffic.sources, "traffic.sources"
        )
        overlap = set(self.traffic.sources) & set(self.group.hosts)
        if overlap:
            raise SpecError(
                f"{self.name}: hosts {sorted(overlap)} are both traffic "
                "sources and group servers; separate them"
            )
        if self.fluid is not None:
            for name, value in (("src", self.fluid.src), ("dst", self.fluid.dst)):
                if value not in seen:
                    raise SpecError(
                        f"{self.name}: fluid.{name} {value!r} is not a "
                        "declared host"
                    )
        if self.tier == "shard":
            if self.traffic.kind != "onoff":
                raise SpecError(
                    f"{self.name}: the shard tier runs the ON/OFF handler "
                    f"program only; traffic.kind {self.traffic.kind!r} needs "
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
