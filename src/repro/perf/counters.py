"""Hot-path counters and the wire-observer statistics tap.

:data:`COUNTERS` is the process-global instrument panel.  Every
producer (the CDR batcher, the GIOP/IOR caches, the scheduler, the AMI
pipeline, ...) bumps its counters unconditionally: an integer increment
is cheaper than a guard.  Nothing here reads a clock — host time per
codec call is ``bench/spans.py``'s job, measured from outside.

:class:`WireStats` rides the existing ``ORB.add_wire_observer`` hook,
so per-ORB traffic accounting needs no monkey-patching:

    stats = WireStats().attach(orb)
    ...
    stats.snapshot()  # messages/bytes in and out, plus global counters
"""

from __future__ import annotations

from typing import Any, Dict

#: Every counter, once: ``__slots__``, :meth:`PerfCounters.reset` and
#: :meth:`PerfCounters.snapshot` are all driven by this table.
_FIELDS = (
    "cdr_batch_encodes",
    "cdr_batch_decodes",
    "ior_parse_hits",
    "ior_parse_misses",
    "ctx_cache_hits",
    "ctx_cache_misses",
    "any_span_hits",
    "any_span_misses",
    "sched_admitted",
    "sched_rejected",
    "sched_shed",
    "pipeline_windows",
    "pipeline_messages",
    "pipeline_inflight_peak",
    "pipeline_out_of_order",
    "rel_retries",
    "rel_retry_exhausted",
    "rel_failovers",
    "rel_deadline_expired",
    "rel_breaker_opens",
    "rel_breaker_fast_fails",
    "rel_breaker_probes",
    "rel_replays",
    "fluid_flowlets",
    "fluid_flowlet_bytes",
    "fluid_completions",
    "fluid_active_peak",
    "ctl_samples",
    "ctl_decisions",
    "ctl_scale_ups",
    "ctl_scale_downs",
    "ctl_migrations",
    "ctl_module_swaps",
    "ctl_renegotiations",
    "ctl_actuations",
    "ctl_actuation_time",
    "rt_connections",
    "rt_frames_in",
    "rt_frames_out",
    "rt_bytes_in",
    "rt_bytes_out",
    "rt_partial_frames",
)

#: ``<stem>_hit_rate`` = hits / (hits + misses), derived in snapshot().
_HIT_RATES = ("ior_parse", "ctx_cache", "any_span")

#: derived key -> (numerator, denominator), 0.0 when the latter is 0.
_MEANS = {
    "pipeline_messages_per_window": ("pipeline_messages", "pipeline_windows"),
    "ctl_actuation_time_mean": ("ctl_actuation_time", "ctl_actuations"),
}


class PerfCounters:
    """Process-wide wire-path counters (see :data:`COUNTERS`)."""

    __slots__ = _FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        for name in _FIELDS:
            setattr(self, name, 0)

    def note_actuation(self, seconds: float) -> None:
        """Record one control-plane actuation and its simulated latency."""
        self.ctl_actuations += 1
        self.ctl_actuation_time += seconds

    def note_fluid_active(self, depth: int) -> None:
        """Record the fluid tier's current active-flow count."""
        if depth > self.fluid_active_peak:
            self.fluid_active_peak = depth

    def note_inflight(self, depth: int) -> None:
        """Record the AMI pipeline's current in-flight future count."""
        if depth > self.pipeline_inflight_peak:
            self.pipeline_inflight_peak = depth

    def snapshot(self) -> Dict[str, Any]:
        """All counters plus derived hit-rate and per-unit figures."""
        panel: Dict[str, Any] = {name: getattr(self, name) for name in _FIELDS}
        for stem in _HIT_RATES:
            hits = panel[f"{stem}_hits"]
            total = hits + panel[f"{stem}_misses"]
            panel[f"{stem}_hit_rate"] = hits / total if total else 0.0
        for key, (numerator, denominator) in _MEANS.items():
            count = panel[denominator]
            panel[key] = panel[numerator] / count if count else 0.0
        return panel


#: The process-global counter panel used by the ORB wire path.
COUNTERS = PerfCounters()


def snapshot(
    orb: Any = None, world: Any = None, kernel: Any = None
) -> Dict[str, Any]:
    """One-call instrument panel: global counters, optionally one ORB's.

    Without arguments this is :meth:`PerfCounters.snapshot` on the
    global panel.  Given an ORB, the per-broker figures that used to
    require poking attributes by hand — request totals, oneway
    delivery failures, backpressure hints, the AMI pipeline's
    in-flight state — are merged in alongside the cache hit/miss and
    pipeline counters.

    Given a world (or an ORB, whose world is used automatically), the
    netsim instrument panels are merged in too: ``kernel_*`` keys carry
    events fired, events pending and the queued-event high-water mark;
    ``net_*`` keys carry traffic totals, the route
    cache hit rate and fluid-tier link accounting.  A control plane
    attached to the world (``world.control`` — see
    :meth:`repro.control.loop.ControlLoop.attach`) contributes the
    ``ctl_*`` panel: tick/decision totals and per-kind actuation counts
    beyond the process-global ``ctl_*`` counters.

    Given a sharded kernel (``kernel=``, see
    :class:`repro.netsim.parallel.ShardedKernel`), its run stats merge
    in as ``kernel_shard_*``: events fired per shard, barrier count
    and per-shard barrier waits, the lookahead window and the
    cross-shard message total.

    Every panel is read off an object the caller passes in: this module
    imports nothing from the layers it reports on.
    """
    merged = COUNTERS.snapshot()
    if orb is not None:
        merged.update(
            host=orb.host_name,
            requests_invoked=orb.requests_invoked,
            requests_received=orb.requests_received,
            oneway_failures=orb.oneway_failures,
            backpressure_hints_observed=orb.backpressure.hints_observed,
            ami_inflight=orb.ami.inflight,
            ami_inflight_peak=orb.ami.inflight_peak,
            ami_queued=orb.ami.queued,
        )
        if world is None:
            world = getattr(orb, "world", None)
    if world is not None:
        for key, value in world.kernel.stats().items():
            merged[f"kernel_{key}"] = value
        for key, value in world.network.stats().items():
            merged[f"net_{key}"] = value
        control = getattr(world, "control", None)
        if control is not None:
            for key, value in control.stats().items():
                merged[f"ctl_{key}"] = value
    if kernel is not None:
        for key, value in kernel.stats().items():
            merged[f"kernel_shard_{key}"] = value
    return merged


class WireStats:
    """A wire observer accumulating message and byte totals for one ORB."""

    __slots__ = ("messages_in", "bytes_in", "messages_out", "bytes_out")

    def __init__(self) -> None:
        self.messages_in = 0
        self.bytes_in = 0
        self.messages_out = 0
        self.bytes_out = 0

    def __call__(self, direction: str, wire: bytes) -> None:
        if direction == "in":
            self.messages_in += 1
            self.bytes_in += len(wire)
        else:
            self.messages_out += 1
            self.bytes_out += len(wire)

    def attach(self, orb: Any) -> "WireStats":
        """Register on ``orb`` via the standard wire-observer hook."""
        orb.add_wire_observer(self)
        return self

    def detach(self, orb: Any) -> None:
        orb.remove_wire_observer(self)

    def snapshot(self) -> Dict[str, Any]:
        """This tap's traffic totals merged with the global counters."""
        merged = COUNTERS.snapshot()
        merged.update(
            messages_in=self.messages_in,
            bytes_in=self.bytes_in,
            messages_out=self.messages_out,
            bytes_out=self.bytes_out,
        )
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WireStats(in={self.messages_in}/{self.bytes_in}B, "
            f"out={self.messages_out}/{self.bytes_out}B)"
        )
