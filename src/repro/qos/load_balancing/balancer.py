"""The load-balancing mediator, server impl and worker-pool helper."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.mediator import CHARACTERISTIC_CONTEXT, Mediator
from repro.core.qos_skeleton import QoSImplementation
from repro.orb.exceptions import (
    BAD_PARAM,
    COMM_FAILURE,
    OBJECT_NOT_EXIST,
    SystemException,
    TRANSIENT,
)
from repro.orb.ior import IOR
from repro.qos.load_balancing.policies import (
    Policy,
    WorkerStats,
    make_policy,
    policy_names,
)


class LoadBalancingImpl(QoSImplementation):
    """Server-side registry of workers, served over management ops."""

    characteristic = "LoadBalancing"

    def __init__(self) -> None:
        self.policy = "round_robin"
        self._workers: List[str] = []

    def get_policy(self) -> str:
        return self.policy

    def set_policy(self, value: str) -> None:
        if value not in policy_names():
            raise BAD_PARAM(
                f"unknown policy {value!r}; available {policy_names()}"
            )
        self.policy = value

    def workers(self) -> List[str]:
        return list(self._workers)

    def add_worker(self, member_ior: str) -> None:
        if member_ior not in self._workers:
            self._workers.append(member_ior)

    def remove_worker(self, member_ior: str) -> None:
        if member_ior in self._workers:
            self._workers.remove(member_ior)


class LoadBalancingMediator(Mediator):
    """Redirects each intercepted call to a policy-chosen worker.

    Workers that fail with a communication error are quarantined and
    the call is retried on the remaining pool; the worker list can be
    refreshed from the server's management operation at any time.
    """

    characteristic = "LoadBalancing"

    def __init__(self, policy: Any = "round_robin", seed: int = 0) -> None:
        super().__init__()
        self.policy: Policy = (
            make_policy(policy, seed) if isinstance(policy, str) else policy
        )
        self._workers: List[IOR] = []
        self._stats: List[WorkerStats] = []
        self._quarantined: List[IOR] = []
        self.redirections = 0
        self.failovers = 0

    # -- worker management -------------------------------------------------

    def set_workers(self, workers: List[IOR]) -> None:
        self._workers = list(workers)
        self._stats = [WorkerStats() for _ in self._workers]
        self._quarantined = []

    def refresh_workers(self, stub: Any) -> List[IOR]:
        """Pull the worker list from the server's management op."""
        ior_strings = stub._invoke(
            "workers",
            (),
            extra_contexts={CHARACTERISTIC_CONTEXT: self.characteristic},
        )
        self.set_workers([IOR.from_string(text) for text in ior_strings])
        return list(self._workers)

    @property
    def workers(self) -> List[IOR]:
        return list(self._workers)

    def stats(self) -> List[WorkerStats]:
        return list(self._stats)

    # -- interception -----------------------------------------------------------

    def invoke(self, stub: Any, operation: str, args: Tuple[Any, ...]) -> Any:
        self.calls_intercepted += 1
        if not self._workers:
            # No pool yet: pass the call through to the bound object.
            return self.issue(stub, operation, args)
        now = stub._orb.time_source.now
        last_error: Optional[SystemException] = None
        while self._workers:
            index = self.policy.choose(len(self._workers), self._stats)
            worker = self._workers[index]
            stats = self._stats[index]
            stats.assigned += 1
            self.redirections += 1
            started = now()
            try:
                result = stub._invoke(
                    operation,
                    args,
                    extra_contexts={
                        CHARACTERISTIC_CONTEXT: self.characteristic
                    },
                    target=worker,
                )
                stats.record(now() - started)
                return result
            except (COMM_FAILURE, TRANSIENT) as error:
                stats.failures += 1
                last_error = error
                self._quarantine(index)
                self.failovers += 1
        raise last_error if last_error is not None else COMM_FAILURE(
            "load balancer has no workers"
        )

    def _quarantine(self, index: int) -> None:
        self._quarantined.append(self._workers.pop(index))
        self._stats.pop(index)

    def reinstate_quarantined(self) -> int:
        """Return quarantined workers to the pool (e.g. after recovery)."""
        count = len(self._quarantined)
        for worker in self._quarantined:
            self._workers.append(worker)
            self._stats.append(WorkerStats())
        self._quarantined = []
        return count


class WorkerPool:
    """Server-side helper: place stateless workers on a set of hosts."""

    def __init__(
        self,
        world: Any,
        pool_name: str,
        servant_factory: Callable[[], Any],
    ) -> None:
        self.world = world
        self.pool_name = pool_name
        self.servant_factory = servant_factory
        self._members: Dict[str, Tuple[Any, IOR]] = {}

    def add_worker(self, host_name: str) -> IOR:
        if host_name in self._members:
            raise ValueError(f"worker already placed on {host_name!r}")
        servant = self.servant_factory()
        orb = self.world.orb(host_name)
        ior = orb.poa.activate_object(servant, f"{self.pool_name}-{host_name}")
        self._members[host_name] = (servant, ior)
        return ior

    def remove_worker(self, host_name: str) -> None:
        servant, ior = self._members.pop(host_name)
        try:
            self.world.orb(host_name).poa.deactivate_object(ior.profile.object_key)
        except OBJECT_NOT_EXIST:
            pass  # already deactivated; membership is what matters

    def worker_iors(self) -> List[IOR]:
        return [ior for _, ior in self._members.values()]

    def hosts(self) -> List[str]:
        return sorted(self._members)

    def populate_impl(self, impl: LoadBalancingImpl) -> None:
        """Register all workers with a server-side impl."""
        for ior in self.worker_iors():
            impl.add_worker(ior.to_string())
