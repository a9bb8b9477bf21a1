"""Chaos campaigns: timed fault scripts, replayable by seed.

A :class:`Campaign` is an ordered list of :class:`ChaosEvent` actions
(crash, recover, partition, heal, loss) layered on
:class:`~repro.netsim.faults.FaultInjector`.  Spec files describe
either literal events or seeded *generators* (``crash_wave``,
``loss_ramp``) that expand deterministically, and every campaign has a
canonical line form whose SHA-256 digest is the replay oracle: same
spec + same seed -> same digest -> same injected fault sequence.

Each ``[[chaos]]`` entry is read through its kind's declared row
(:data:`ROWS`, via :func:`repro.scenario.schema.read`): an unknown key
or an ill-typed or out-of-range value is a :class:`ChaosError`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.scenario.schema import (
    count, declare, declared, host_groups, host_pair, interval,
    non_negative, nonempty_host_list, positive, read, string,
)

__all__ = ["Campaign", "ChaosEvent", "ChaosError"]

#: Event kinds a campaign may contain after expansion.
KINDS = ("crash", "recover", "partition", "heal", "loss")


class ChaosError(ValueError):
    """A chaos script that cannot be what the author meant."""


@dataclass(frozen=True)
class ChaosEvent:
    """One timed fault action.  ``args`` is kind-specific and canonical."""

    at: float
    kind: str
    args: Tuple[Any, ...] = ()

    def canonical(self) -> str:
        return f"{self.at:.9f} {self.kind} {self.args!r}"


# -- spec rows: one declared table per ``[[chaos]]`` kind ----------------------


@declared
class _Row:
    """A literal event; ``heal`` has nothing more."""

    kind: str = declare(string)
    at: float = declare(non_negative)

    def args(self) -> Tuple[Any, ...]:
        return ()

    def events(self, seed: int, index: int) -> List[ChaosEvent]:
        return [ChaosEvent(self.at, self.kind, self.args())]


@declared
class _HostRow(_Row):
    """``crash`` / ``recover`` one host."""

    host: str = declare(string)

    def args(self) -> Tuple[Any, ...]:
        return (self.host,)


@declared
class _PartitionRow(_Row):
    groups: List[List[str]] = declare(host_groups)

    def args(self) -> Tuple[Any, ...]:
        return tuple(tuple(sorted(group)) for group in self.groups)


@declared
class _LossRow(_Row):
    link: List[str] = declare(host_pair)
    rate: float = declare(interval("[0, 1)"), 0.0)

    def args(self) -> Tuple[Any, ...]:
        return (tuple(self.link), self.rate)


@declared
class _CrashWaveRow(_Row):
    """A seeded wave of crash/recover pairs rolling over hosts."""

    hosts: List[str] = declare(nonempty_host_list)
    interval: float = declare(positive, 0.05)
    downtime: float = declare(positive, 0.04)
    waves: int = declare(count, 1)

    def events(self, seed: int, index: int) -> List[ChaosEvent]:
        rng = random.Random(f"{seed}:crash_wave:{index}")
        events: List[ChaosEvent] = []
        t = self.at
        for _wave in range(self.waves):
            order = list(self.hosts)
            rng.shuffle(order)
            for host in order:
                events.append(ChaosEvent(round(t, 9), "crash", (host,)))
                events.append(
                    ChaosEvent(round(t + self.downtime, 9), "recover", (host,))
                )
                t += self.interval
        return events


@declared
class _LossRampRow(_Row):
    """A stepwise loss ramp on one link, ending healed."""

    link: List[str] = declare(host_pair)
    steps: int = declare(count, 4)
    step_every: float = declare(positive, 0.1)
    max_rate: float = declare(interval("(0, 1)"), 0.2)

    def events(self, seed: int, index: int) -> List[ChaosEvent]:
        rates = [
            round(self.max_rate * (step + 1) / self.steps, 9)
            for step in range(self.steps)
        ]
        return [
            ChaosEvent(
                round(self.at + step * self.step_every, 9), "loss",
                (tuple(self.link), rate),
            )
            for step, rate in enumerate(rates + [0.0])
        ]


#: Spec kind -> its row: the literals, then the seeded generators.  A
#: spec's ``chaos`` field holds tables only (``schema.tables``).
ROWS = {
    "crash": _HostRow, "recover": _HostRow, "partition": _PartitionRow,
    "heal": _Row, "loss": _LossRow,
    "crash_wave": _CrashWaveRow, "loss_ramp": _LossRampRow,
}


class Campaign:
    """An expanded, validated, digestible fault script."""

    def __init__(self, events: Iterable[ChaosEvent], seed: int = 0) -> None:
        self.events: List[ChaosEvent] = sorted(
            events, key=lambda e: (e.at, KINDS.index(e.kind), e.args)
        )
        self.seed = seed

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dicts(
        cls, entries: Sequence[Dict[str, Any]], seed: int = 0,
        hosts: Optional[Sequence[str]] = None, duration: Optional[float] = None,
    ) -> "Campaign":
        """Read each entry through its kind's row (:data:`ROWS`), expand."""
        events: List[ChaosEvent] = []
        for index, entry in enumerate(entries):
            kind = entry.get("kind")
            if kind is None:
                raise ChaosError(f"chaos[{index}]: missing 'kind'")
            if not isinstance(kind, str) or kind not in ROWS:
                raise ChaosError(
                    f"chaos[{index}]: unknown kind {kind!r}; expected one of "
                    f"{tuple(ROWS)}"
                )
            row = read(ROWS[kind], f"chaos[{index}] ({kind})", entry, ChaosError)
            events.extend(row.events(seed, index))
        campaign = cls(events, seed=seed)
        campaign.validate(hosts=hosts, duration=duration)
        return campaign

    # -- validation -------------------------------------------------------

    def validate(
        self,
        hosts: Optional[Sequence[str]] = None,
        duration: Optional[float] = None,
    ) -> None:
        """Reject scripts that cannot be what the author meant."""
        known = set(hosts) if hosts is not None else None
        partition_open: Optional[float] = None
        down: Dict[str, float] = {}
        for event in self.events:
            if duration is not None and event.at > duration:
                raise ChaosError(
                    f"chaos event {event.canonical()!r} fires after the "
                    f"scenario ends at {duration}s"
                )
            if known is not None:
                for name in self._host_refs(event):
                    if name not in known:
                        raise ChaosError(
                            f"chaos event {event.canonical()!r} references "
                            f"unknown host {name!r} (known: {sorted(known)})"
                        )
            if event.kind == "partition":
                if partition_open is not None:
                    raise ChaosError(
                        f"overlapping chaos windows: partition at {event.at} "
                        f"starts while the partition from {partition_open} is "
                        "still open; heal it first"
                    )
                partition_open = event.at
            elif event.kind == "heal":
                if partition_open is None:
                    raise ChaosError(
                        f"heal at {event.at} precedes every partition still "
                        "open at that instant; schedule the partition first"
                    )
                partition_open = None
            elif event.kind == "crash":
                host = event.args[0]
                if host in down:
                    raise ChaosError(
                        f"overlapping chaos windows: {host!r} crashes at "
                        f"{event.at} but is already down since {down[host]} "
                        "(no recover in between)"
                    )
                down[host] = event.at
            elif event.kind == "recover":
                host = event.args[0]
                if host not in down:
                    raise ChaosError(
                        f"recover of {host!r} at {event.at} precedes its crash"
                    )
                del down[host]
        if partition_open is not None:
            raise ChaosError(
                f"partition at {partition_open} is never healed; add a heal "
                "event (an unhealed partition outlives the scenario)"
            )

    @staticmethod
    def _host_refs(event: ChaosEvent) -> List[str]:
        if event.kind in ("crash", "recover"):
            return [event.args[0]]
        if event.kind == "partition":
            return [name for group in event.args for name in group]
        if event.kind == "loss":
            return list(event.args[0])
        return []

    # -- identity ---------------------------------------------------------

    def canonical_lines(self) -> List[str]:
        return [event.canonical() for event in self.events]

    def digest(self) -> str:
        """SHA-256 over the canonical script: the replay oracle."""
        blob = "\n".join(self.canonical_lines()).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def __len__(self) -> int:
        return len(self.events)

    # -- installation -------------------------------------------------------

    def install(self, injector: Any, network: Any) -> int:
        """Schedule every event on the injector's kernel; returns count."""
        for event in self.events:
            if event.kind == "loss":
                (a, b), rate = event.args
                injector.set_loss_at(event.at, network.link_between(a, b), rate)
            elif event.kind == "partition":
                injector.partition_at(event.at, *[list(g) for g in event.args])
            else:  # crash_at / recover_at (one host), heal_at (nothing)
                getattr(injector, f"{event.kind}_at")(event.at, *event.args)
        return len(self.events)
