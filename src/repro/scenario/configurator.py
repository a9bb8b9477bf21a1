"""Instantiate a live deployment from a declarative :class:`Spec`.

The configurator is the bridge between the spec tree and the running
pieces: it builds the :class:`~repro.orb.world.World` topology (hosts,
links, cohorts, clustered fabrics), incarnates the serving group
(a :class:`ReplicaGroupManager` of compute servants for open-loop
traffic, a ledger group with duplicate-commit accounting for
transactional traffic), installs the request scheduler and QoS-module
stacks, schedules the chaos campaign and the fluid background — all
from data.  A :class:`StackConfig` overlays one matrix axis
(scheduler policy, reliability on/off, compression codec, replica
count) on top of the spec without editing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.netsim.network import NoRoute
from repro.orb import World
from repro.orb.ior import GROUP_TAG, IOR, TaggedComponent
from repro.orb.modules.base import binding_key
from repro.orb.request import reset_request_ids
from repro.orb.servant import Servant
from repro.orb.stub import Stub
from repro.perf import COUNTERS
from repro.qos.fault_tolerance.replica_group import ReplicaGroupManager
from repro.scenario.spec import ClusterSpec, Spec, SpecError
from repro.workloads.apps import make_compute_servant_class

__all__ = ["Deployment", "StackConfig", "build_deployment", "DEFAULT_STACKS"]


@dataclass(frozen=True)
class StackConfig:
    """One matrix axis: overrides applied on top of a spec.

    ``None`` fields inherit the spec's own setting; ``codec=""``
    explicitly strips any compression stack the spec declares.
    """

    name: str
    sched: Optional[str] = None
    reliability: Optional[bool] = None
    codec: Optional[str] = None
    replicas: Optional[int] = None

    def resolve(self, spec: Spec) -> "ResolvedStack":
        policy = self.sched if self.sched is not None else spec.sched.policy
        rel = (
            self.reliability
            if self.reliability is not None
            else spec.reliability.enabled
        )
        if self.codec is None:
            codec = spec.modules[0].codec if spec.modules else None
        else:
            codec = self.codec or None
        replicas = (
            self.replicas if self.replicas is not None else len(spec.group.hosts)
        )
        if not 1 <= replicas <= len(spec.group.hosts):
            raise SpecError(
                f"stack {self.name!r}: replicas={replicas} but spec "
                f"{spec.name!r} declares {len(spec.group.hosts)} group "
                f"host(s) ({spec.group.hosts}); add hosts or lower replicas"
            )
        return ResolvedStack(
            name=self.name,
            policy=policy,
            reliability=rel,
            codec=codec,
            group_hosts=list(spec.group.hosts[:replicas]),
        )


@dataclass(frozen=True)
class ResolvedStack:
    """A stack after merging with one spec: what actually gets built."""

    name: str
    policy: str
    reliability: bool
    codec: Optional[str]
    group_hosts: List[str]

    def describe(self) -> str:
        parts = [self.policy, "rel" if self.reliability else "bare"]
        if self.codec:
            parts.append(self.codec)
        parts.append(f"x{len(self.group_hosts)}")
        return "+".join(parts)


#: The default matrix axes: scheduler x reliability x compression x size.
DEFAULT_STACKS = (
    StackConfig("fifo-bare", sched="fifo", reliability=False, codec=""),
    StackConfig("wfq-reliable", sched="wfq", reliability=True),
    StackConfig("wfq-reliable-rle", sched="wfq", reliability=True, codec="rle"),
    # A single replica cannot fail over, so the solo axis runs bare —
    # chaos scenarios' reliability-gated SLOs correctly skip it.
    StackConfig("fifo-bare-solo", sched="fifo", reliability=False, codec="",
                replicas=1),
)

#: The CI quick subset: one bare FIFO axis and one full WFQ axis.
QUICK_STACKS = DEFAULT_STACKS[:2]


def make_ledger_servant_class(service_time: float) -> type:
    """A transactional servant: idempotent ``process``, counted ``commit``."""

    class LedgerServant(Servant):
        _repo_id = "IDL:scenario/Ledger:1.0"
        _default_service_time = service_time

        def __init__(self):
            self.processed = 0
            #: token -> times the non-idempotent commit ran here.
            self.commits: Dict[str, int] = {}

        def process(self, token):
            self.processed += 1
            return token

        def commit(self, token):
            self.commits[token] = self.commits.get(token, 0) + 1
            return self.commits[token]

        # Integration operations (state transfer / load probes).
        def get_state(self):
            return {"processed": self.processed, "commits": dict(self.commits)}

        def set_state(self, state):
            self.processed = state["processed"]
            self.commits = dict(state["commits"])

        def current_load(self):
            return self.processed

    return LedgerServant


class LedgerStub(Stub):
    _idempotent_ops = frozenset({"process"})

    def process(self, token):
        return self._call("process", token)

    def commit(self, token):
        return self._call("commit", token)


class Deployment:
    """A spec + stack, instantiated: topology, group, stacks, chaos."""

    def __init__(self, spec: Spec, stack: ResolvedStack) -> None:
        reset_request_ids()
        COUNTERS.reset()
        self.spec = spec
        self.stack = stack
        self.world = World()
        self.manager: Optional[ReplicaGroupManager] = None
        self.servants: Dict[str, Any] = {}
        self.member_iors: List[IOR] = []
        self.group_ior: Optional[IOR] = None
        self.schedulers: Dict[str, Any] = {}
        self.cohorts: List[Any] = []
        self.campaign = spec.campaign()
        self._build_topology()
        self._build_group()
        self._assign_modules()
        self._install_campaign()
        self._install_fluid()

    # -- topology -----------------------------------------------------

    def _build_topology(self) -> None:
        spec = self.spec
        for host in spec.hosts:
            self.world.add_host(host.name, cpu_factor=host.cpu_factor)
        for link in spec.links:
            self.world.connect(
                link.a, link.b, link.latency, link.bandwidth_bps,
                link.loss_rate, seed=spec.seed,
            )
        for cohort in spec.cohorts:
            for client in cohort.client_names():
                self.world.add_host(client)
                self.world.connect(
                    client, cohort.gateway, cohort.latency, cohort.bandwidth_bps
                )
        if spec.clusters is not None:
            self._build_clusters(spec.clusters)

    def _build_clusters(self, layout: ClusterSpec) -> None:
        """The soak fabric: intra-cluster LANs, gateway (h00) ring."""
        hosts, links = layout.layout()
        for host in hosts:
            self.world.add_host(host)
        for link in links:
            try:
                self.world.network.link_between(link.a, link.b)
            except NoRoute:
                self.world.connect(link.a, link.b, link.latency, link.bandwidth_bps)

    # -- serving group --------------------------------------------------

    def _install_scheduler(self, host: str) -> None:
        orb = self.world.orb(host)
        scheduler = orb.install_scheduler(
            policy=self.stack.policy, max_depth=self.spec.sched.max_depth
        )
        for name in self.spec.traffic.classes:
            params = dict(self.spec.sched.classes.get(name, {}))
            params.setdefault("weight", 1.0)
            params.setdefault("priority", 5)
            scheduler.define_class(name, **params)
        self.schedulers[host] = scheduler

    def _build_group(self) -> None:
        spec, stack = self.spec, self.stack
        for host in stack.group_hosts:
            self._install_scheduler(host)
        if spec.traffic.mode == "open":
            self.manager = ReplicaGroupManager(
                self.world,
                spec.group.name,
                make_compute_servant_class(unit_cost=spec.group.service_time),
            )
            for host in stack.group_hosts:
                self.manager.add_replica(host)
                self.servants[host] = self.manager.replica(host)
            self.member_iors = self.manager.member_iors()
            self.group_ior = self.manager.group_ior("first")
        else:  # txn
            servant_class = make_ledger_servant_class(spec.group.service_time)
            for host in stack.group_hosts:
                servant = servant_class()
                self.servants[host] = servant
                self.member_iors.append(
                    self.world.orb(host).poa.activate_object(
                        servant, object_key=f"{spec.group.name}-{host}"
                    )
                )
            primary = self.member_iors[0]
            self.group_ior = IOR(
                primary.type_id,
                primary.profile,
                [
                    TaggedComponent(
                        GROUP_TAG,
                        {
                            "group": spec.group.name,
                            "members": [
                                ior.to_string() for ior in self.member_iors
                            ],
                            "policy": "first",
                        },
                    )
                ],
            )

    def make_txn_stub(self, source: str) -> Any:
        """A (possibly reliable) ledger stub bound on a traffic source."""
        if self.spec.traffic.mode != "txn":
            raise SpecError(
                f"{self.spec.name}: make_txn_stub needs traffic.mode = 'txn'"
            )
        client = self.world.orb(source)
        stub = LedgerStub(client, self.group_ior)
        if self.stack.reliability:
            from repro.reliability import ReliabilityPolicy, reliable

            rel = self.spec.reliability
            stub = reliable(
                stub,
                ReliabilityPolicy(
                    max_retries=rel.max_retries,
                    base_backoff=rel.base_backoff,
                    jitter=rel.jitter,
                    breaker_threshold=rel.breaker_threshold,
                    breaker_cooldown=rel.breaker_cooldown,
                    seed=self.spec.seed,
                ),
            )
        return stub

    def duplicate_commits(self) -> int:
        """Non-idempotent commits that executed more than once anywhere."""
        total = 0
        for servant in self.servants.values():
            commits = getattr(servant, "commits", None)
            if commits:
                total += sum(1 for count in commits.values() if count > 1)
        return total

    # -- router (open-loop) -------------------------------------------------

    def route_least_backlog(self, arrival: Any, depart: float) -> IOR:
        """Route to the live member with the shortest queue at departure.

        With every member crashed the primary is returned — the call
        then fails and is counted against the scenario's failure SLO,
        which is the honest outcome of a full outage.
        """
        best: Optional[IOR] = None
        best_backlog = float("inf")
        for ior in self.member_iors:
            host = self.world.network.host(ior.profile.host)
            if host.crashed:
                continue
            backlog = host.backlog(depart)
            if backlog < best_backlog:
                best, best_backlog = ior, backlog
        return best if best is not None else self.member_iors[0]

    # -- QoS modules ----------------------------------------------------

    def _assign_modules(self) -> None:
        """Client-side compression on every source, keyed per target.

        Only transactional traffic rides the module path —
        ``open_loop_fanout`` drives :meth:`ORB.round_trip` below the
        QoS transport, so the codec is assigned (harmlessly) but never
        exercised there.  Both the group reference and every member
        reference get the codec so reliability failovers stay
        compressed.
        """
        codec = self.stack.codec
        if not codec:
            return
        targets = list(self.member_iors)
        if self.group_ior is not None:
            targets.append(self.group_ior)
        for source in self.spec.traffic.sources:
            client = self.world.orb(source)
            module = None
            for target in targets:
                client.qos_transport.assign(target, "compression")
                module = client.qos_transport.module("compression")
                module.set_codec(binding_key(target), codec)

    # -- chaos / background -----------------------------------------------

    def _install_campaign(self) -> None:
        if not len(self.campaign):
            return
        try:
            self.campaign.install(self.world.faults, self.world.network)
        except Exception as error:
            raise SpecError(
                f"{self.spec.name}: chaos campaign cannot install on this "
                f"topology: {error}"
            ) from error

    def _install_fluid(self) -> None:
        fluid = self.spec.fluid
        if fluid is None:
            return
        from repro.netsim.fluid.tier import FluidFlowExecutor
        from repro.workloads.fluid import FluidCohort

        tier = FluidFlowExecutor(self.world.network, self.world.kernel)
        cohort = FluidCohort(
            tier,
            fluid.src,
            fluid.dst,
            fluid.n_clients,
            flowlets_per_client=fluid.flowlets_per_client,
            seed=self.spec.seed,
            max_flowlets=fluid.max_flowlets,
        )
        cohort.install(self.spec.duration)
        self.cohorts.append(cohort)


def build_deployment(spec: Spec, stack: Optional[StackConfig] = None) -> Deployment:
    """Instantiate ``spec`` with ``stack`` overrides (spec-as-is default)."""
    if stack is None:
        stack = StackConfig(name="spec")
    return Deployment(spec, stack.resolve(spec))
