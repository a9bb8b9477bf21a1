"""Fault injection: crashes, recoveries, partitions and loss.

Drives the fault-tolerance experiments (E4).  Faults can be applied
immediately or scheduled on an :class:`~repro.netsim.kernel.EventKernel`
so that crash/recover traces interleave deterministically with the
request workload.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.netsim.kernel import EventKernel, KernelError
from repro.netsim.network import Link, Network


class FaultInjector:
    """Apply and schedule failures on a :class:`Network`."""

    def __init__(self, network: Network, kernel: Optional[EventKernel] = None):
        self.network = network
        self.kernel = kernel
        self.log: List[Tuple[float, str]] = []
        #: Fire times of partitions scheduled via :meth:`partition_at`;
        #: :meth:`heal_at` validates against them (a heal scheduled
        #: before any partition exists used to be accepted silently and
        #: left the partition in place forever).
        self._scheduled_partitions: List[float] = []

    def _record(self, description: str, at: Optional[float] = None) -> None:
        # ``at`` is the *scheduled* fire time of a kernel-driven fault.
        # The clock cannot be trusted for that: a synchronous workload
        # step may have advanced it past the fault's instant before the
        # kernel re-enters here (Clock.advance_to tolerates the past),
        # which used to log the apply time instead of the fire time.
        self.log.append((self.network.clock.now if at is None else at, description))

    def _require_kernel(self) -> EventKernel:
        if self.kernel is None:
            raise RuntimeError("scheduling faults requires an EventKernel")
        return self.kernel

    # -- immediate faults ----------------------------------------------

    def crash(self, host_name: str, at: Optional[float] = None) -> None:
        """Crash a host now; in-flight state is lost (fail-stop model)."""
        self.network.host(host_name).crashed = True
        self._record(f"crash {host_name}", at)

    def recover(self, host_name: str, at: Optional[float] = None) -> None:
        """Bring a crashed host back up (empty queue, no state)."""
        host = self.network.host(host_name)
        host.crashed = False
        host.busy_until = self.network.clock.now
        self._record(f"recover {host_name}", at)

    def partition(self, *groups: Iterable[str], at: Optional[float] = None) -> None:
        """Split the network into the given groups."""
        self._partition(groups, at)

    def _partition(
        self, groups: Sequence[Iterable[str]], at: Optional[float] = None
    ) -> None:
        self.network.set_partitions(groups)
        self._record(f"partition {[sorted(g) for g in map(set, groups)]}", at)

    def heal(self, at: Optional[float] = None) -> None:
        """Heal all partitions."""
        self.network.heal_partitions()
        self._record("heal", at)

    def set_loss(
        self, link: Link, loss_rate: float, at: Optional[float] = None
    ) -> None:
        """Make a link lossy from now on."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1): {loss_rate}")
        link.loss_rate = loss_rate
        self._record(f"loss {link.endpoints()} p={loss_rate}", at)

    # -- scheduled faults ----------------------------------------------

    def crash_at(self, time: float, host_name: str) -> None:
        """Schedule a crash at an absolute simulated time."""
        self._require_kernel().schedule_at(time, self.crash, host_name, time)

    def recover_at(self, time: float, host_name: str) -> None:
        """Schedule a recovery at an absolute simulated time."""
        self._require_kernel().schedule_at(time, self.recover, host_name, time)

    def partition_at(self, time: float, *groups: Iterable[str]) -> None:
        """Schedule a partition at an absolute simulated time."""
        frozen = [tuple(group) for group in groups]
        self._require_kernel().schedule_at(time, self._partition, frozen, time)
        self._scheduled_partitions.append(time)

    def heal_at(self, time: float) -> None:
        """Schedule the healing of all partitions.

        The heal must land after a partition it can heal: either one is
        active right now, or one was scheduled (via :meth:`partition_at`)
        to fire at or before ``time``.  Anything else is a scripting
        error that used to pass silently and leave the partition in
        place forever.
        """
        if not self.network.partitioned and not any(
            fire <= time for fire in self._scheduled_partitions
        ):
            earliest = (
                min(self._scheduled_partitions)
                if self._scheduled_partitions
                else None
            )
            detail = (
                f"the earliest scheduled partition fires at {earliest}"
                if earliest is not None
                else "no partition is active or scheduled"
            )
            raise ValueError(
                f"heal_at({time}) has nothing to heal: {detail}; "
                "schedule the partition first (partition_at) or partition "
                "immediately before scheduling the heal"
            )
        self._require_kernel().schedule_at(time, self.heal, time)

    def set_loss_at(self, time: float, link: Link, loss_rate: float) -> None:
        """Schedule a link loss-rate change."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1): {loss_rate}")
        self._require_kernel().schedule_at(
            time, self.set_loss, link, loss_rate, time
        )

    def crash_schedule(
        self, schedule: Sequence[Tuple[float, float, str]]
    ) -> None:
        """Schedule ``(crash_time, recover_time, host)`` triples.

        A ``recover_time`` of ``float('inf')`` means the host never
        comes back.  Every triple is checked before any is scheduled, so
        a rejected schedule leaves the kernel untouched.
        """
        schedule = list(schedule)
        now = self._require_kernel().clock.now
        for crash_time, recover_time, _host_name in schedule:
            if not crash_time >= now:
                raise KernelError(
                    f"cannot crash at {crash_time} before current time {now}"
                )
            if not recover_time > crash_time:
                raise ValueError(
                    f"recover ({recover_time}) must follow crash ({crash_time})"
                )
        for crash_time, recover_time, host_name in schedule:
            self.crash_at(crash_time, host_name)
            if recover_time != float("inf"):
                self.recover_at(recover_time, host_name)
