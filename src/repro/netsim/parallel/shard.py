"""One shard of a sharded run: its heap, clock, hosts and outbox.

A :class:`ShardRuntime` keeps a *minimal* event heap of
``(time, seq, host, handler_ref, payload)`` tuples.  Shard events are
fire-and-forget — nothing ever cancels them — so none of the serial
kernel's :class:`~repro.netsim.kernel.Event` machinery (cancellation
flags, labels, kwargs, compaction) is needed, and dropping the per-
event object roughly halves the allocator/GC pressure of a deep soak.
Every heap comparison is decided by the ``(time, seq)`` prefix at C
level; ``seq`` is unique per shard, so handler payloads are never
compared.

The runtime adds the three things a conservatively synchronized shard
must manage:

- *ownership*: only events for this shard's hosts enter the local
  heap; anything else becomes a timestamped :class:`CrossShardMessage`
  in the outbox, drained by the coordinator at the next barrier;
- *window draining*: :meth:`run_window` fires strictly-before the
  window end, so an event at exactly ``W + lookahead`` still sees
  every message produced during the window starting at ``W``.
  :meth:`start` and :meth:`finish` wrap it in the two-phase handle the
  coordinator's barrier loop drives (a spawned worker's pipe proxy has
  the same two methods);
- *tracing*: optional per-event trace entries whose canonical (sorted)
  order is independent of the shard count, so a SHA-256 digest over
  them compares serial and sharded runs bit-for-bit.

:class:`SerialScenarioDriver` runs the same handler programs on any
*serial* event kernel — in practice
:class:`~repro.netsim.kernel.EventKernel`, which is how the
``kernel_soak`` workload of ``bench/`` measures that kernel.  It
implements the same runtime protocol, so handlers cannot tell the
difference.  (The sharded kernel's own serial fallback is a single
:class:`ShardRuntime` owning every host.)
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.netsim.kernel import KernelError
from repro.netsim.parallel.messages import (
    CrossShardMessage,
    handler_ref,
    resolve_handler,
)
from repro.netsim.parallel.plan import TopologySpec

__all__ = ["ShardContext", "ShardRuntime", "SerialScenarioDriver"]

Handler = Union[str, Callable[..., Any]]


def _as_ref(handler: Handler) -> str:
    return handler if isinstance(handler, str) else handler_ref(handler)


class ShardContext:
    """The API a handler sees: ``handler(ctx, payload)``.

    One context object per shard, re-pointed at the firing host before
    each event — handlers must not keep references across events.
    """

    __slots__ = ("_runtime", "host")

    def __init__(self, runtime: Any) -> None:
        self._runtime = runtime
        self.host = ""

    @property
    def now(self) -> float:
        """Current simulated time on this shard."""
        return self._runtime.now

    @property
    def topology(self) -> TopologySpec:
        return self._runtime.topology

    @property
    def state(self) -> Dict[str, Any]:
        """Mutable per-host scratch state (survives between events)."""
        return self._runtime.host_state(self.host)

    def rng(self, host: Optional[str] = None) -> random.Random:
        """Deterministic per-host random stream.

        Seeded from ``(run seed, host name)`` only, so the stream does
        not depend on how hosts were sharded.
        """
        return self._runtime.host_rng(host if host is not None else self.host)

    def schedule(
        self, delay: float, host: str, handler: Handler, payload: Any = None
    ) -> None:
        """Run ``handler`` on ``host`` after ``delay`` seconds."""
        if not delay >= 0.0:
            raise KernelError(f"cannot schedule in the past (delay={delay})")
        runtime = self._runtime
        runtime.post(runtime.now + delay, host, _as_ref(handler), payload)

    def send(
        self,
        dst: str,
        handler: Handler,
        payload: Any = None,
        nbytes: int = 0,
    ) -> float:
        """Deliver ``payload`` to ``dst`` after the modelled transfer time.

        The delay is the topology's idle-network transfer time (path
        latency plus serialisation at the bottleneck link), which is
        what makes cross-shard sends safe: any path that crosses the
        shard cut is at least one cut-link latency — the lookahead —
        long.  Returns the delay.
        """
        runtime = self._runtime
        delay = runtime.topology.transfer_delay(self.host, dst, nbytes)
        runtime.post(runtime.now + delay, dst, _as_ref(handler), payload)
        return delay

    def record(self, *fields: Any) -> None:
        """Append an application-level entry to the trace."""
        self._runtime.note(self.host, fields)


class _HostStateMixin:
    """Per-host scratch state and seeded random streams."""

    def host_state(self, host: str) -> Dict[str, Any]:
        state = self._state.get(host)
        if state is None:
            state = self._state[host] = {}
        return state

    def host_rng(self, host: str) -> random.Random:
        rng = self._rngs.get(host)
        if rng is None:
            # Seeded by string: hashed with SHA-512 internally, so the
            # stream is stable across processes and PYTHONHASHSEED.
            rng = self._rngs[host] = random.Random(f"{self.seed}:{host}")
        return rng


class ShardRuntime(_HostStateMixin):
    """Minimal heap, clock, hosts, per-host state and the outbox."""

    def __init__(
        self,
        shard_id: int,
        hosts: Set[str],
        topology: TopologySpec,
        lookahead: float,
        seed: int = 0,
        trace: bool = False,
    ) -> None:
        self.shard_id = shard_id
        self.hosts = set(hosts)
        self.topology = topology
        self.lookahead = lookahead
        self.seed = seed
        self.trace_enabled = trace
        #: Simulated time: the due time of the last fired event.
        self.now = 0.0
        self._heap: List[Tuple[float, int, str, str, Any]] = []
        self._seq = 0
        self.events_fired = 0
        self.outbox: List[CrossShardMessage] = []
        self.trace: List[Tuple[float, str, str, str]] = []
        self.cross_sent = 0
        self.cross_received = 0
        self._window_fired = 0
        self._state: Dict[str, Dict[str, Any]] = {}
        self._rngs: Dict[str, random.Random] = {}

    # -- event flow ----------------------------------------------------

    def post(self, time: float, host: str, ref: str, payload: Any) -> None:
        """Route an event to the local heap or the cross-shard outbox."""
        if host in self.hosts:
            self._seq += 1
            heappush(self._heap, (time, self._seq, host, ref, payload))
            return
        if time < self.now + self.lookahead:
            raise KernelError(
                f"cross-shard event at {time:.9f} violates the lookahead "
                f"window ({self.now:.9f} + {self.lookahead:.9f}); route it "
                "over a link or fall back to the serial kernel"
            )
        self.outbox.append(CrossShardMessage(time, host, ref, payload))
        self.cross_sent += 1

    def deliver(self, messages: List[CrossShardMessage]) -> None:
        """Barrier-time injection of messages owned by this shard."""
        heap = self._heap
        for message in messages:
            self._seq += 1
            heappush(
                heap,
                (message.time, self._seq, message.host, message.handler,
                 message.payload),
            )
        self.cross_received += len(messages)

    def note(self, host: str, fields: Tuple[Any, ...]) -> None:
        if self.trace_enabled:
            self.trace.append((self.now, host, "record", repr(fields)))

    # -- window execution ----------------------------------------------

    def next_event_time(self) -> Optional[float]:
        heap = self._heap
        return heap[0][0] if heap else None

    def run_window(self, window_end: float) -> int:
        """Fire every event strictly before ``window_end``."""
        heap = self._heap
        # A context per window, not per runtime: a runtime that held its
        # context would sit in a reference cycle, keeping its trace alive
        # after the run until the cycle collector happened to run.
        ctx = ShardContext(self)
        trace = self.trace if self.trace_enabled else None
        resolve = resolve_handler
        fired = 0
        while heap:
            head = heap[0]
            time = head[0]
            if time >= window_end:
                break
            heappop(heap)
            self.now = time
            host = head[2]
            ref = head[3]
            if trace is not None:
                trace.append((time, host, ref, repr(head[4])))
            ctx.host = host
            resolve(ref)(ctx, head[4])
            fired += 1
        self.events_fired += fired
        return fired

    def start(self, window_end: float) -> None:
        """Phase one of a barrier window: run it."""
        self._window_fired = self.run_window(window_end)

    def finish(self) -> Tuple[int, List[CrossShardMessage]]:
        """Phase two: the window's event count and the drained outbox."""
        outbox = self.outbox
        self.outbox = []
        return self._window_fired, outbox

    def results(self) -> Tuple[List[Tuple[float, str, str, str]], Dict[str, Any]]:
        """The trace and the stats, once the run is over."""
        return self.trace, self.stats()

    def stats(self) -> Dict[str, Any]:
        return {
            "shard": self.shard_id,
            "hosts": len(self.hosts),
            "events_fired": self.events_fired,
            "cross_sent": self.cross_sent,
            "cross_received": self.cross_received,
        }


class SerialScenarioDriver(_HostStateMixin):
    """Run a parallel-API scenario on any serial event kernel.

    ``kernel`` needs only ``schedule_at(time, fn, *args)``, ``run()``
    and a ``clock`` with ``now`` — which
    :class:`~repro.netsim.kernel.EventKernel` provides.  Its unsorted
    trace is the one the sharded kernel's serial fallback writes.
    """

    def __init__(
        self,
        kernel: Any,
        topology: TopologySpec,
        seed: int = 0,
        trace: bool = False,
    ) -> None:
        self.kernel = kernel
        self.topology = topology
        self.seed = seed
        self.trace_enabled = trace
        self.trace: List[Tuple[float, str, str, str]] = []
        self._state: Dict[str, Dict[str, Any]] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._ctx = ShardContext(self)

    @property
    def now(self) -> float:
        return self.kernel.clock.now

    def post(self, time: float, host: str, ref: str, payload: Any) -> None:
        self.kernel.schedule_at(time, self._fire, host, ref, payload)

    def note(self, host: str, fields: Tuple[Any, ...]) -> None:
        if self.trace_enabled:
            self.trace.append(
                (self.kernel.clock.now, host, "record", repr(fields))
            )

    def _fire(self, host: str, ref: str, payload: Any) -> None:
        if self.trace_enabled:
            self.trace.append(
                (self.kernel.clock.now, host, ref, repr(payload))
            )
        ctx = self._ctx
        ctx.host = host
        resolve_handler(ref)(ctx, payload)

    def schedule_at(
        self, time: float, host: str, handler: Handler, payload: Any = None
    ) -> None:
        self.post(time, host, _as_ref(handler), payload)

    def run(self) -> int:
        return self.kernel.run()
