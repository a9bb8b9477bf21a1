"""Tracing module: per-binding wire telemetry as a QoS module.

A deliberately small module that shows how cheaply the reflective
module layer extends (Section 4): it performs no transformation, just
records every request it carries — operation, wire bytes, round-trip
seconds on the ORB's time source — queryable through its dynamic
interface.  Assign it to a binding to audit that relationship's
traffic without touching either application side.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Tuple

from repro.orb import giop
from repro.orb.modules.base import QoSModule, binding_key
from repro.orb.request import Request

#: Records kept per binding.
HISTORY = 100


class TraceModule(QoSModule):
    """Record traffic of the bindings assigned to this module."""

    name = "trace"
    description = "per-binding wire telemetry (operation, bytes, rtt)"
    uses_envelope = False
    dynamic_ops = ("recent", "totals", "clear")

    def __init__(self) -> None:
        super().__init__()
        self._records: Dict[str, Deque[Tuple[str, int, float]]] = {}
        self._totals: Dict[str, Dict[str, float]] = {}

    # -- data plane -----------------------------------------------------

    def send_request(self, orb: Any, request: Request) -> giop.Reply:
        # Overridden (not just observed through ``exchange``) so traced
        # bindings stay off the AMI pipeline, whose windows would pass
        # by this record.
        clock = orb.time_source
        depart = clock.now()
        reply, error, finish, bytes_out, _ = self.exchange(orb, request, depart)
        if error is not None:
            raise error
        clock.wait_until(finish)
        self.requests_sent += 1
        binding = binding_key(request.target)
        elapsed = finish - depart
        history = self._records.setdefault(binding, deque(maxlen=HISTORY))
        history.append((request.operation, bytes_out, elapsed))
        totals = self._totals.setdefault(
            binding, {"calls": 0.0, "bytes": 0.0, "seconds": 0.0}
        )
        totals["calls"] += 1
        totals["bytes"] += bytes_out
        totals["seconds"] += elapsed
        if reply is None:
            return giop.Reply(request.request_id, {}, None, None)
        return reply

    # -- dynamic interface ------------------------------------------------

    def recent(self, binding: str, count: int = 10) -> List[List[Any]]:
        """The last ``count`` records for a binding (op, bytes, rtt)."""
        history = self._records.get(binding, deque())
        return [list(record) for record in list(history)[-count:]]

    def totals(self, binding: str) -> Dict[str, float]:
        return dict(self._totals.get(binding, {"calls": 0.0, "bytes": 0.0,
                                                "seconds": 0.0}))

    def clear(self, binding: str) -> None:
        self._records.pop(binding, None)
        self._totals.pop(binding, None)


from repro.orb.modules import register_module  # noqa: E402

register_module(TraceModule)
