"""Pacing: a mediator that honours the server's retry-after hints.

The client ORB records the scheduler's hints in its
:class:`repro.orb.backpressure.Backpressure` tracker; mediators (the
MAQS client-side QoS weaving point) consult it to degrade gracefully —
:class:`PacingMediator` simply waits the suggested delay out on the
ORB's time source before issuing.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.core.mediator import Mediator


class PacingMediator(Mediator):
    """A mediator that honours the server's backpressure hints.

    Before issuing, it waits (in simulated time) for any retry-after
    the target host advertised — the graceful-degradation half of the
    scheduler's overload protection.  Stacks under richer mediators in
    a :class:`~repro.core.mediator.MediatorChain`.
    """

    characteristic = "__pacing__"

    def __init__(self) -> None:
        super().__init__()
        self.delays_taken = 0
        self.delay_total = 0.0

    def invoke(self, stub: Any, operation: str, args: Tuple[Any, ...]) -> Any:
        self.calls_intercepted += 1
        orb = stub._orb
        delay = orb.backpressure.suggested_delay(
            stub._ior.profile.host, orb.time_source.now()
        )
        if delay > 0.0:
            orb.time_source.wait(delay)
            self.delays_taken += 1
            self.delay_total += delay
        return stub._invoke(operation, args)
