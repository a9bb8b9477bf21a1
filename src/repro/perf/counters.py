"""Hot-path counters and the wire-observer statistics tap.

:data:`COUNTERS` is the process-global instrument panel.  The GIOP
codec records encode/decode nanoseconds and byte counts into it when
``enabled`` is set (one boolean attribute check per message when off);
the CDR batcher and the IOR/service-context caches bump their counters
unconditionally because an integer increment is cheaper than a guard.

:class:`WireStats` rides the existing ``ORB.add_wire_observer`` hook,
so per-ORB traffic accounting needs no monkey-patching:

    stats = WireStats().attach(orb)
    ...
    stats.snapshot()  # messages/bytes in and out, plus global counters
"""

from __future__ import annotations

from typing import Any, Dict


class PerfCounters:
    """Process-wide wire-path counters (see :data:`COUNTERS`)."""

    __slots__ = (
        "enabled",
        "encode_calls",
        "encode_ns",
        "encode_bytes",
        "decode_calls",
        "decode_ns",
        "decode_bytes",
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
        "encoder_pool_hits",
        "encoder_pool_misses",
        "request_pool_hits",
        "request_pool_misses",
        "module_bursts",
        "module_burst_messages",
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

    def __init__(self) -> None:
        self.enabled = False
        self.reset()

    def enable(self) -> "PerfCounters":
        """Turn on encode/decode timing (adds two clock reads per message)."""
        self.enabled = True
        return self

    def disable(self) -> "PerfCounters":
        self.enabled = False
        return self

    def reset(self) -> None:
        """Zero every counter; the enabled flag is left as it is."""
        self.encode_calls = 0
        self.encode_ns = 0
        self.encode_bytes = 0
        self.decode_calls = 0
        self.decode_ns = 0
        self.decode_bytes = 0
        self.cdr_batch_encodes = 0
        self.cdr_batch_decodes = 0
        self.ior_parse_hits = 0
        self.ior_parse_misses = 0
        self.ctx_cache_hits = 0
        self.ctx_cache_misses = 0
        self.any_span_hits = 0
        self.any_span_misses = 0
        self.sched_admitted = 0
        self.sched_rejected = 0
        self.sched_shed = 0
        self.encoder_pool_hits = 0
        self.encoder_pool_misses = 0
        self.request_pool_hits = 0
        self.request_pool_misses = 0
        self.module_bursts = 0
        self.module_burst_messages = 0
        self.pipeline_windows = 0
        self.pipeline_messages = 0
        self.pipeline_inflight_peak = 0
        self.pipeline_out_of_order = 0
        self.rel_retries = 0
        self.rel_retry_exhausted = 0
        self.rel_failovers = 0
        self.rel_deadline_expired = 0
        self.rel_breaker_opens = 0
        self.rel_breaker_fast_fails = 0
        self.rel_breaker_probes = 0
        self.rel_replays = 0
        self.fluid_flowlets = 0
        self.fluid_flowlet_bytes = 0
        self.fluid_completions = 0
        self.fluid_active_peak = 0
        self.ctl_samples = 0
        self.ctl_decisions = 0
        self.ctl_scale_ups = 0
        self.ctl_scale_downs = 0
        self.ctl_migrations = 0
        self.ctl_module_swaps = 0
        self.ctl_renegotiations = 0
        self.ctl_actuations = 0
        self.ctl_actuation_time = 0.0
        self.rt_connections = 0
        self.rt_frames_in = 0
        self.rt_frames_out = 0
        self.rt_bytes_in = 0
        self.rt_bytes_out = 0
        self.rt_partial_frames = 0

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

    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """All counters plus derived per-call and hit-rate figures."""
        return {
            "enabled": self.enabled,
            "encode_calls": self.encode_calls,
            "encode_ns": self.encode_ns,
            "encode_bytes": self.encode_bytes,
            "encode_ns_per_call": (
                self.encode_ns / self.encode_calls if self.encode_calls else 0.0
            ),
            "decode_calls": self.decode_calls,
            "decode_ns": self.decode_ns,
            "decode_bytes": self.decode_bytes,
            "decode_ns_per_call": (
                self.decode_ns / self.decode_calls if self.decode_calls else 0.0
            ),
            "cdr_batch_encodes": self.cdr_batch_encodes,
            "cdr_batch_decodes": self.cdr_batch_decodes,
            "ior_parse_hits": self.ior_parse_hits,
            "ior_parse_misses": self.ior_parse_misses,
            "ior_parse_hit_rate": self._rate(
                self.ior_parse_hits, self.ior_parse_misses
            ),
            "ctx_cache_hits": self.ctx_cache_hits,
            "ctx_cache_misses": self.ctx_cache_misses,
            "ctx_cache_hit_rate": self._rate(
                self.ctx_cache_hits, self.ctx_cache_misses
            ),
            "any_span_hits": self.any_span_hits,
            "any_span_misses": self.any_span_misses,
            "any_span_hit_rate": self._rate(
                self.any_span_hits, self.any_span_misses
            ),
            "sched_admitted": self.sched_admitted,
            "sched_rejected": self.sched_rejected,
            "sched_shed": self.sched_shed,
            "encoder_pool_hits": self.encoder_pool_hits,
            "encoder_pool_misses": self.encoder_pool_misses,
            "encoder_pool_hit_rate": self._rate(
                self.encoder_pool_hits, self.encoder_pool_misses
            ),
            "request_pool_hits": self.request_pool_hits,
            "request_pool_misses": self.request_pool_misses,
            "module_bursts": self.module_bursts,
            "module_burst_messages": self.module_burst_messages,
            "pipeline_windows": self.pipeline_windows,
            "pipeline_messages": self.pipeline_messages,
            "pipeline_messages_per_window": (
                self.pipeline_messages / self.pipeline_windows
                if self.pipeline_windows
                else 0.0
            ),
            "pipeline_inflight_peak": self.pipeline_inflight_peak,
            "pipeline_out_of_order": self.pipeline_out_of_order,
            "rel_retries": self.rel_retries,
            "rel_retry_exhausted": self.rel_retry_exhausted,
            "rel_failovers": self.rel_failovers,
            "rel_deadline_expired": self.rel_deadline_expired,
            "rel_breaker_opens": self.rel_breaker_opens,
            "rel_breaker_fast_fails": self.rel_breaker_fast_fails,
            "rel_breaker_probes": self.rel_breaker_probes,
            "rel_replays": self.rel_replays,
            "fluid_flowlets": self.fluid_flowlets,
            "fluid_flowlet_bytes": self.fluid_flowlet_bytes,
            "fluid_completions": self.fluid_completions,
            "fluid_active_peak": self.fluid_active_peak,
            "ctl_samples": self.ctl_samples,
            "ctl_decisions": self.ctl_decisions,
            "ctl_scale_ups": self.ctl_scale_ups,
            "ctl_scale_downs": self.ctl_scale_downs,
            "ctl_migrations": self.ctl_migrations,
            "ctl_module_swaps": self.ctl_module_swaps,
            "ctl_renegotiations": self.ctl_renegotiations,
            "ctl_actuations": self.ctl_actuations,
            "ctl_actuation_time": self.ctl_actuation_time,
            "ctl_actuation_time_mean": (
                self.ctl_actuation_time / self.ctl_actuations
                if self.ctl_actuations
                else 0.0
            ),
            "rt_connections": self.rt_connections,
            "rt_frames_in": self.rt_frames_in,
            "rt_frames_out": self.rt_frames_out,
            "rt_bytes_in": self.rt_bytes_in,
            "rt_bytes_out": self.rt_bytes_out,
            "rt_partial_frames": self.rt_partial_frames,
        }


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
    in-flight state — are merged in alongside the pool hit/miss and
    pipeline counters.

    Given a world (or an ORB, whose world is used automatically), the
    netsim instrument panels are merged in too: ``kernel_*`` keys carry
    events fired, heap compactions and the cancelled-pending/live-event
    high-water marks; ``net_*`` keys carry traffic totals, the route
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
