"""Topology description and shard placement.

:class:`TopologySpec` is the picklable, pure-data view of a simulated
network that the sharded kernel operates on: host names plus
``(a, b, latency, bandwidth)`` link records.  It can be built from an
existing :class:`~repro.netsim.network.Network` or assembled directly
by a workload.

:class:`ShardPlanner` assigns hosts to shards.  The objective is
min-cut-ish: tightly coupled hosts (low-latency, high-rate links)
should share a shard, because every link crossing the cut both carries
barrier traffic and — through its latency — bounds the lookahead
window.  The planner grows balanced shards greedily from deterministic
seeds and then runs boundary-refinement passes that move hosts across
the cut whenever that lowers the cut weight without unbalancing the
shards.  Everything tie-breaks on host name, so the same topology
always yields the same plan.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, FrozenSet, List, Sequence, Tuple

__all__ = [
    "LinkSpec", "TopologySpec", "ShardPlan", "ShardPlanner", "cluster_layout",
]


class LinkSpec(Tuple[str, str, float, float]):
    """``(a, b, latency, bandwidth_bps)`` — a picklable link record."""

    __slots__ = ()

    def __new__(
        cls, a: str, b: str, latency: float, bandwidth_bps: float = 100e6
    ) -> "LinkSpec":
        if latency < 0.0:
            raise ValueError(f"latency must be non-negative: {latency}")
        if bandwidth_bps <= 0.0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_bps}")
        return super().__new__(cls, (a, b, float(latency), float(bandwidth_bps)))

    def __getnewargs__(self) -> Tuple[str, str, float, float]:
        # tuple subclass with a multi-argument __new__: spell out the
        # constructor arguments so pickling (spawned workers) works.
        return (self[0], self[1], self[2], self[3])

    @property
    def a(self) -> str:
        return self[0]

    @property
    def b(self) -> str:
        return self[1]

    @property
    def latency(self) -> float:
        return self[2]

    @property
    def bandwidth_bps(self) -> float:
        return self[3]


def cluster_layout(
    clusters: int,
    hosts_per_cluster: int,
    intra_latency: float,
    inter_latency: float,
    bandwidth_bps: float = 100e6,
) -> Tuple[List[str], List[LinkSpec]]:
    """Islands of fully meshed hosts joined by a ring of gateway trunks.

    Cluster ``c`` holds hosts ``c{c:02d}h00``, ``c{c:02d}h01``, ...;
    its first host is the gateway.  Hosts come cluster by cluster;
    links come as each island's mesh in host order, then the ring
    ``g0-g1, g1-g2, ...``, closed by ``g_last-g0`` when more than two
    clusters make that a new link.
    """
    hosts: List[str] = []
    links: List[LinkSpec] = []
    gateways: List[str] = []
    for c in range(clusters):
        members = [f"c{c:02d}h{h:02d}" for h in range(hosts_per_cluster)]
        hosts.extend(members)
        gateways.append(members[0])
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                links.append(LinkSpec(a, b, intra_latency, bandwidth_bps))
    for c in range(1, clusters):
        links.append(
            LinkSpec(gateways[c - 1], gateways[c], inter_latency, bandwidth_bps)
        )
    if clusters > 2:
        links.append(
            LinkSpec(gateways[-1], gateways[0], inter_latency, bandwidth_bps)
        )
    return hosts, links


class TopologySpec:
    """Hosts and links as plain data (picklable, hashable content).

    The all-pairs path table (shortest latency plus the bottleneck
    bandwidth along that path) is computed lazily and cached; the
    sharded kernel uses it to price ``ctx.send`` exactly like
    :meth:`repro.netsim.network.Network.transfer_delay` prices a
    best-effort message on an idle network.
    """

    def __init__(self, hosts: Sequence[str], links: Sequence[LinkSpec]) -> None:
        self.hosts: Tuple[str, ...] = tuple(sorted(hosts))
        known = set(self.hosts)
        for link in links:
            if link.a not in known or link.b not in known:
                raise ValueError(f"link references unknown host: {link!r}")
        self.links: Tuple[LinkSpec, ...] = tuple(
            sorted(links, key=lambda l: (l.a, l.b))
        )
        self._adjacency: Dict[str, Dict[str, LinkSpec]] = {h: {} for h in self.hosts}
        for link in self.links:
            self._adjacency[link.a][link.b] = link
            self._adjacency[link.b][link.a] = link
        self._paths: Dict[str, Dict[str, Tuple[float, float]]] = {}

    @classmethod
    def from_network(cls, network: Any) -> "TopologySpec":
        """Extract the spec from a live :class:`~repro.netsim.network.Network`."""
        links = [
            LinkSpec(link.a.name, link.b.name, link.latency, link.capacity_bps)
            for link in network.links()
        ]
        return cls(list(network.hosts), links)

    def neighbours(self, host: str) -> Dict[str, LinkSpec]:
        return self._adjacency[host]

    def _paths_from(self, src: str) -> Dict[str, Tuple[float, float]]:
        """Dijkstra by latency; carries the path's bottleneck bandwidth."""
        table: Dict[str, Tuple[float, float]] = {src: (0.0, float("inf"))}
        frontier: List[Tuple[float, str, float]] = [(0.0, src, float("inf"))]
        done: set = set()
        while frontier:
            dist, node, bottleneck = heapq.heappop(frontier)
            if node in done:
                continue
            done.add(node)
            for neighbour, link in self._adjacency[node].items():
                candidate = dist + link.latency
                known = table.get(neighbour)
                if known is None or candidate < known[0]:
                    narrow = min(bottleneck, link.bandwidth_bps)
                    table[neighbour] = (candidate, narrow)
                    heapq.heappush(frontier, (candidate, neighbour, narrow))
        return table

    def path_row(self, src: str) -> Dict[str, Tuple[float, float]]:
        """``src``'s cached row of the path table: ``dst -> path(src, dst)``."""
        row = self._paths.get(src)
        if row is None:
            row = self._paths[src] = self._paths_from(src)
        return row

    def path(self, src: str, dst: str) -> Tuple[float, float]:
        """``(latency, bottleneck_bandwidth_bps)`` of the best path.

        Raises :class:`KeyError` when no path exists.
        """
        return self.path_row(src)[dst]

    def transfer_delay(self, src: str, dst: str, nbytes: int = 0) -> float:
        """Idle-network transfer time for ``nbytes`` from ``src`` to ``dst``."""
        if src == dst:
            return 0.0
        latency, bandwidth = self.path(src, dst)
        if nbytes <= 0:
            return latency
        return latency + (nbytes * 8.0) / bandwidth

    def __reduce__(self):
        return (TopologySpec, (list(self.hosts), list(self.links)))


class ShardPlan:
    """The planner's output: host assignment plus the sync parameters."""

    def __init__(
        self,
        assignment: Dict[str, int],
        shards: int,
        lookahead: float,
        cut_links: int,
        cut_weight: float,
    ) -> None:
        #: Host name -> shard index.
        self.assignment = assignment
        self.shards = shards
        #: Conservative window width: the minimum latency of any link
        #: crossing the cut.  ``inf`` when no link crosses (independent
        #: shards), ``0.0`` when a zero-latency link crosses — the
        #: signal to fall back to the serial kernel.
        self.lookahead = lookahead
        self.cut_links = cut_links
        self.cut_weight = cut_weight

    def members(self, shard: int) -> List[str]:
        return sorted(h for h, s in self.assignment.items() if s == shard)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardPlan(shards={self.shards}, lookahead={self.lookahead}, "
            f"cut_links={self.cut_links})"
        )


def _coupling(link: LinkSpec) -> float:
    """Edge weight for the cut objective.

    Low-latency links are expensive to cut twice over: they carry the
    tightest coupling *and* shrink the lookahead window.  Weight them
    inversely by latency (with a floor so zero-latency links are
    simply very heavy, not infinite).
    """
    return 1.0 / (link.latency + 1e-9)


class ShardPlanner:
    """Deterministic, balance-constrained, min-cut-ish host assignment."""

    #: Shards may exceed the ideal size by this factor during refinement.
    BALANCE_SLACK = 1.30
    #: Boundary-refinement sweeps after the greedy growth phase.
    REFINE_PASSES = 4

    def __init__(self, topology: TopologySpec) -> None:
        self.topology = topology

    def plan(self, shards: int) -> ShardPlan:
        if shards < 1:
            raise ValueError(f"need at least one shard: {shards}")
        hosts = self.topology.hosts
        shards = min(shards, len(hosts)) if hosts else 1
        if shards <= 1:
            assignment = {h: 0 for h in hosts}
            return ShardPlan(assignment, 1, float("inf"), 0, 0.0)
        assignment = self._grow(shards)
        self._refine(assignment, shards)
        lookahead, cut_links, cut_weight = self._cut_metrics(assignment)
        return ShardPlan(assignment, shards, lookahead, cut_links, cut_weight)

    # -- greedy growth -------------------------------------------------

    def _grow(self, shards: int) -> Dict[str, int]:
        hosts = self.topology.hosts
        capacity = -(-len(hosts) // shards)  # ceil
        assignment: Dict[str, int] = {}
        unassigned = set(hosts)
        for shard in range(shards):
            if not unassigned:
                break
            seed = min(unassigned)
            assignment[seed] = shard
            unassigned.discard(seed)
            size = 1
            # Attachment weight of each candidate to the growing shard.
            gains: Dict[str, float] = {}
            for neighbour, link in self.topology.neighbours(seed).items():
                if neighbour in unassigned:
                    gains[neighbour] = gains.get(neighbour, 0.0) + _coupling(link)
            while size < capacity and unassigned:
                if gains:
                    # Highest coupling first; name breaks ties.
                    best = max(gains, key=lambda h: (gains[h], h))
                else:
                    # Disconnected remainder: take the smallest name so
                    # isolated hosts still land somewhere deterministic.
                    best = min(unassigned)
                assignment[best] = shard
                unassigned.discard(best)
                gains.pop(best, None)
                size += 1
                for neighbour, link in self.topology.neighbours(best).items():
                    if neighbour in unassigned:
                        gains[neighbour] = (
                            gains.get(neighbour, 0.0) + _coupling(link)
                        )
        # Any stragglers (more shards than connected components needed).
        for host in sorted(unassigned):
            sizes = [0] * shards
            for s in assignment.values():
                sizes[s] += 1
            assignment[host] = sizes.index(min(sizes))
        return assignment

    # -- refinement ----------------------------------------------------

    def _refine(self, assignment: Dict[str, int], shards: int) -> None:
        limit = max(1, int(self.BALANCE_SLACK * -(-len(assignment) // shards)))
        for _ in range(self.REFINE_PASSES):
            moved = False
            sizes = [0] * shards
            for s in assignment.values():
                sizes[s] += 1
            for host in self.topology.hosts:
                current = assignment[host]
                if sizes[current] <= 1:
                    continue
                # Coupling of this host toward every shard.
                pull: Dict[int, float] = {}
                for neighbour, link in self.topology.neighbours(host).items():
                    shard = assignment[neighbour]
                    pull[shard] = pull.get(shard, 0.0) + _coupling(link)
                here = pull.get(current, 0.0)
                best_shard, best_gain = current, 0.0
                for shard in sorted(pull):
                    if shard == current or sizes[shard] >= limit:
                        continue
                    gain = pull[shard] - here
                    if gain > best_gain + 1e-12:
                        best_shard, best_gain = shard, gain
                if best_shard != current:
                    assignment[host] = best_shard
                    sizes[current] -= 1
                    sizes[best_shard] += 1
                    moved = True
            if not moved:
                break

    # -- cut metrics ---------------------------------------------------

    def _cut_metrics(
        self, assignment: Dict[str, int]
    ) -> Tuple[float, int, float]:
        lookahead = float("inf")
        cut_links = 0
        cut_weight = 0.0
        for link in self.topology.links:
            if assignment[link.a] != assignment[link.b]:
                cut_links += 1
                cut_weight += _coupling(link)
                if link.latency < lookahead:
                    lookahead = link.latency
        return lookahead, cut_links, cut_weight
