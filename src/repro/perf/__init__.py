"""Wire-path performance instrumentation.

Always-on integer counters for the ORB hot path — cache hit rates for
the GIOP/IOR machinery, batch, pipeline, scheduler and reliability
activity — and a :class:`~repro.perf.counters.WireStats` observer that
plugs into the existing ``ORB.add_wire_observer`` hook to count
on-the-wire traffic.  There is no switch: a counter is one integer
increment, and nothing here reads a clock (``bench/spans.py`` times the
codec from outside).
"""

from repro.perf.counters import COUNTERS, PerfCounters, WireStats, snapshot
from repro.perf.lru import LRUCache

__all__ = ["COUNTERS", "PerfCounters", "WireStats", "LRUCache", "snapshot"]
