"""Replica groups: membership, state transfer, crash masking.

Server-side orchestration is in :class:`ReplicaGroupManager`: it
incarnates one servant per host, initialises newcomers by state
transfer over the ORB (the integration operations), and publishes a
group reference carrying the QoS tag and the member list the
``multicast`` module fans out over.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.mediator import Mediator
from repro.core.qos_skeleton import QoSImplementation
from repro.orb.dii import DIIRequest
from repro.orb.exceptions import (
    BAD_PARAM,
    COMM_FAILURE,
    OBJECT_NOT_EXIST,
    SystemException,
    TRANSIENT,
)
from repro.orb.ior import GROUP_TAG, IOR, QOS_TAG, TaggedComponent
from repro.orb.modules.base import binding_key
from repro.orb.modules.multicast import POLICIES


class FaultToleranceImpl(QoSImplementation):
    """Server-side QoS implementation: membership and policy state."""

    characteristic = "FaultTolerance"

    def __init__(self) -> None:
        self.replicas = 0
        self.required_availability = 1
        self._policy = "first"
        self._members: List[str] = []

    # QoS parameter accessors (the generated skeleton shape).
    def get_replicas(self) -> int:
        return self.replicas

    def get_required_availability(self) -> int:
        return self.required_availability

    def set_required_availability(self, value: int) -> None:
        self.required_availability = int(value)

    # Management operations.
    def set_masking_policy(self, policy: str) -> None:
        if policy not in POLICIES:
            raise BAD_PARAM(f"unknown policy {policy!r}; choose from {POLICIES}")
        self._policy = policy

    def get_masking_policy(self) -> str:
        return self._policy

    # Peer (QoS-to-QoS) operations.
    def join_group(self, member_ior: str) -> None:
        if member_ior not in self._members:
            self._members.append(member_ior)
            self.replicas = len(self._members)

    def leave_group(self, member_ior: str) -> None:
        if member_ior in self._members:
            self._members.remove(member_ior)
            self.replicas = len(self._members)

    def members(self) -> List[str]:
        return list(self._members)


class FaultToleranceMediator(Mediator):
    """Client-side behaviour: one bounded retry on transient failures.

    Crash masking itself happens in the multicast module; the mediator
    covers the residual window (e.g. the last reachable replica died
    mid-call) with a single retry before surfacing the failure.
    """

    characteristic = "FaultTolerance"

    def __init__(self, retries: int = 1) -> None:
        super().__init__()
        self.retries = retries
        self.retries_used = 0

    def invoke(self, stub: Any, operation: str, args: Tuple[Any, ...]) -> Any:
        self.calls_intercepted += 1
        attempts = self.retries + 1
        last_error: Optional[SystemException] = None
        for _ in range(attempts):
            try:
                return self.issue(stub, operation, args)
            except (COMM_FAILURE, TRANSIENT) as error:
                last_error = error
                self.retries_used += 1
        raise last_error  # type: ignore[misc]


class ReplicaGroupManager:
    """Creates and maintains a replica group for one logical object."""

    def __init__(
        self,
        world: Any,
        group_name: str,
        servant_factory: Callable[[], Any],
        repo_id: Optional[str] = None,
    ) -> None:
        self.world = world
        self.group_name = group_name
        self.servant_factory = servant_factory
        self.repo_id = repo_id
        #: host -> (servant, member IOR)
        self._replicas: Dict[str, Tuple[Any, IOR]] = {}
        self._member_order: List[str] = []
        self.state_transfers = 0

    # -- membership -----------------------------------------------------

    def add_replica(self, host_name: str, source: Optional[str] = None) -> IOR:
        """Incarnate a replica on a host, initialising it by state transfer.

        ``source`` names the member to copy state from — the migration
        planner passes the servant being moved, so the newcomer is an
        exact snapshot of it; without it the first reachable live
        member is used.
        """
        if host_name in self._replicas:
            raise ValueError(f"replica already placed on {host_name!r}")
        if source is not None and source not in self._replicas:
            raise ValueError(f"no replica on source {source!r}")
        servant = self.servant_factory()
        impl = FaultToleranceImpl()
        servant.set_qos_impl(impl)
        servant.activate_qos("FaultTolerance")
        orb = self.world.orb(host_name)
        member_ior = orb.poa.activate_object(
            servant, f"{self.group_name}-{host_name}"
        )
        if self._member_order:
            self._transfer_state(orb, member_ior, source)
        self._replicas[host_name] = (servant, member_ior)
        self._member_order.append(host_name)
        self._broadcast_membership()
        return member_ior

    def _transfer_state(
        self, orb: Any, newcomer: IOR, source: Optional[str] = None
    ) -> None:
        """Initialise a newcomer from the first reachable live member."""
        candidates = [source] if source is not None else self._member_order
        for host_name in candidates:
            _, source_ior = self._replicas[host_name]
            try:
                state = DIIRequest(orb, source_ior, "get_state").invoke()
                DIIRequest(orb, newcomer, "set_state").add_argument(state).invoke()
                self.state_transfers += 1
                return
            except (COMM_FAILURE, TRANSIENT):
                continue
        raise COMM_FAILURE(
            f"no live replica of {self.group_name!r} to transfer state from"
        )

    def resync(self, host_name: str, source: Optional[str] = None) -> None:
        """Re-initialise a (recovered) replica from a live member.

        Fail-stop recovery loses in-flight state; a replica must be
        brought back to the group state before it may vote again.
        ``source`` names the member to copy from — pass one known to be
        current (e.g. a replica that never crashed); without it the
        first reachable other member is used, which is only safe when
        a single replica recovered.
        """
        if host_name not in self._replicas:
            raise ValueError(f"no replica on {host_name!r}")
        if source is not None and source not in self._replicas:
            raise ValueError(f"no replica on source {source!r}")
        orb = self.world.orb(host_name)
        _, member_ior = self._replicas[host_name]
        candidates = [source] if source else self._member_order
        for other in candidates:
            if other == host_name:
                continue
            _, source_ior = self._replicas[other]
            try:
                state = DIIRequest(orb, source_ior, "get_state").invoke()
                DIIRequest(orb, member_ior, "set_state").add_argument(state).invoke()
                self.state_transfers += 1
                return
            except (COMM_FAILURE, TRANSIENT):
                continue
        raise COMM_FAILURE(
            f"no live replica of {self.group_name!r} to resync {host_name!r} from"
        )

    def remove_replica(self, host_name: str) -> None:
        if host_name not in self._replicas:
            raise ValueError(f"no replica on {host_name!r}")
        _, member_ior = self._replicas.pop(host_name)
        self._member_order.remove(host_name)
        orb = self.world.orb(host_name)
        try:
            orb.poa.deactivate_object(member_ior.profile.object_key)
        except OBJECT_NOT_EXIST:
            pass  # already deactivated; membership is what matters
        self._broadcast_membership()

    def _broadcast_membership(self) -> None:
        """Keep every replica's peer view of the group current."""
        member_strings = [
            self._replicas[host][1].to_string() for host in self._member_order
        ]
        for host_name in self._member_order:
            servant, _ = self._replicas[host_name]
            impl = servant.qos_impl("FaultTolerance")
            impl._members = list(member_strings)
            impl.replicas = len(member_strings)

    # -- group reference ----------------------------------------------------

    def hosts(self) -> List[str]:
        return list(self._member_order)

    def replica(self, host_name: str) -> Any:
        return self._replicas[host_name][0]

    def member_ior(self, host_name: str) -> IOR:
        """The member reference serving on ``host_name``."""
        return self._replicas[host_name][1]

    def member_iors(self) -> List[IOR]:
        """Every member reference, in placement order."""
        return [self._replicas[host][1] for host in self._member_order]

    def group_ior(self, policy: str = "first") -> IOR:
        """The QoS-tagged group reference clients bind to."""
        if not self._member_order:
            raise ValueError("group has no members yet")
        if policy not in POLICIES:
            raise BAD_PARAM(f"unknown policy {policy!r}; choose from {POLICIES}")
        primary = self._replicas[self._member_order[0]][1]
        repo_id = self.repo_id or primary.type_id
        members = [
            self._replicas[host][1].to_string() for host in self._member_order
        ]
        return IOR(
            repo_id,
            primary.profile,
            [
                TaggedComponent(
                    QOS_TAG, {"characteristics": ["FaultTolerance"]}
                ),
                TaggedComponent(
                    GROUP_TAG,
                    {"group": self.group_name, "members": members, "policy": policy},
                ),
            ],
        )

    def bind_client(
        self, client_orb: Any, stub_class: type, policy: str = "first"
    ) -> Any:
        """Convenience: build a bound, mediated stub on a client ORB."""
        ior = self.group_ior(policy)
        client_orb.qos_transport.assign(ior, "multicast")
        module = client_orb.qos_transport.module("multicast")
        module.set_policy(binding_key(ior), policy)
        stub = stub_class(client_orb, ior)
        FaultToleranceMediator().install(stub)
        return stub

    def bind_reliable_client(
        self,
        client_orb: Any,
        stub_class: type,
        reliability_policy: Any = None,
        policy: str = "first",
    ) -> Any:
        """A unicast stub recovering via the reliability layer.

        Where :meth:`bind_client` masks crashes by multicasting every
        call to all members, this binds *one* member at a time and
        installs a :class:`~repro.reliability.ReliabilityMediator`
        that retries, breaks and fails over along the group reference's
        ``GROUP_TAG`` member list — the cheap-path alternative when
        active replication is too expensive for the traffic.
        """
        # Imported here: repro.reliability builds on repro.orb/core,
        # and this module must not force it into every FT import.
        from repro.reliability import ReliabilityMediator, ReliabilityPolicy

        ior = self.group_ior(policy)
        stub = stub_class(client_orb, ior)
        mediator = ReliabilityMediator(
            reliability_policy
            if reliability_policy is not None
            else ReliabilityPolicy()
        )
        mediator.install(stub)
        return stub
