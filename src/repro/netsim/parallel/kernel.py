"""The sharded kernel: conservative windows, barriers, backends.

Synchronization protocol (classic conservative PDES, BSP-shaped):

1. compute ``gvt`` — the earliest pending event time across shards and
   undelivered messages;
2. open the window ``[gvt, gvt + lookahead)`` where the lookahead is
   the minimum latency of any link crossing the shard cut;
3. every shard fires its local events strictly inside the window.  Any
   event it produces for a foreign host becomes a timestamped
   :class:`CrossShardMessage`; the lookahead guarantees such messages
   are due *at or after* the window end, so no shard can receive one
   it should already have processed;
4. barrier: exchange outboxes, deliver each message into its owner's
   heap, go to 1.

One loop (:meth:`ShardedKernel._drain`) runs the protocol for every
mode; it sees each shard through a two-phase handle — ``start`` the
window on every shard, then ``finish`` every shard — so the backends
differ only in what a handle is.  ``inline`` handles are the
:class:`ShardRuntime` objects themselves (windows become loop
iterations: no IPC, deterministic, the right choice on one core);
``process`` handles are pipe proxies to spawned ``multiprocessing``
workers, which run their windows concurrently between the two phases.
When the plan has one shard or zero lookahead (a zero-latency cut link
would force zero-width windows) the kernel falls back to *serial*: one
runtime owns every host and the loop drains it in a single window.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from repro.netsim.kernel import KernelError
from repro.netsim.parallel.messages import CrossShardMessage
from repro.netsim.parallel.plan import ShardPlan, ShardPlanner, TopologySpec
from repro.netsim.parallel.shard import Handler, ShardRuntime, _as_ref

__all__ = ["ShardedKernel"]


def _worker_main(conn: Any, shard_id: int, hosts: List[str],
                 topology: TopologySpec, lookahead: float, seed: int,
                 trace: bool,
                 initial: List[Tuple[float, str, str, Any]]) -> None:
    """Entry point of one spawned shard worker (module-level: spawn-safe)."""
    runtime = ShardRuntime(shard_id, set(hosts), topology, lookahead,
                           seed=seed, trace=trace)
    for time, host, ref, payload in initial:
        runtime.post(time, host, ref, payload)
    try:
        conn.send(runtime.next_event_time())
        while True:
            message = conn.recv()
            if message[0] == "window":
                _, window_end, inbox = message
                runtime.deliver(inbox)
                runtime.start(window_end)
                fired, outbox = runtime.finish()
                conn.send((fired, outbox, runtime.next_event_time()))
            else:
                conn.send(runtime.results())
                return
    finally:
        conn.close()


class _WorkerShard:
    """The coordinator's handle on one spawned worker.

    ``start`` only sends and ``finish`` only receives, so every worker
    runs its window while the coordinator is still starting the others.
    Messages delivered at a barrier wait here until the next ``start``;
    until then they count towards this shard's head time.
    """

    def __init__(self, conn: Any) -> None:
        self._conn = conn
        self._head: Optional[float] = conn.recv()
        self._inbox: List[CrossShardMessage] = []

    def next_event_time(self) -> Optional[float]:
        head = self._head
        for message in self._inbox:
            if head is None or message.time < head:
                head = message.time
        return head

    def deliver(self, messages: List[CrossShardMessage]) -> None:
        self._inbox.extend(messages)

    def start(self, window_end: float) -> None:
        self._conn.send(("window", window_end, self._inbox))
        self._inbox = []

    def finish(self) -> Tuple[int, List[CrossShardMessage]]:
        fired, outbox, self._head = self._conn.recv()
        return fired, outbox

    def results(self) -> Tuple[List[Tuple[float, str, str, str]], Dict[str, Any]]:
        self._conn.send(("results",))
        return self._conn.recv()


class ShardedKernel:
    """Drop-in scenario driver over a host-sharded event space.

    >>> topo = TopologySpec(["a", "b"], [LinkSpec("a", "b", 0.002)])
    ... kernel = ShardedKernel(topo, shards=2)
    ... kernel.schedule_at(0.0, "a", some_handler)
    ... kernel.run()

    ``backend`` is ``"inline"`` (default) or ``"process"``; either way
    the synchronization protocol, the event orderings per host and the
    trace digest are the same.
    """

    def __init__(
        self,
        topology: TopologySpec,
        shards: int = 4,
        backend: str = "inline",
        seed: int = 0,
        trace: bool = False,
        plan: Optional[ShardPlan] = None,
    ) -> None:
        if backend not in ("inline", "process"):
            raise KernelError(f"unknown backend: {backend!r}")
        self.topology = topology
        self.backend = backend
        self.seed = seed
        self.trace_enabled = trace
        self.plan = plan if plan is not None else ShardPlanner(topology).plan(shards)
        #: Serial fallback: zero lookahead makes conservative windows
        #: zero-width (no progress possible).
        self.serial = self.plan.shards <= 1 or self.plan.lookahead <= 0.0
        self._pending: List[Tuple[float, str, str, Any]] = []
        self._trace: List[Tuple[float, str, str, str]] = []
        self._stats: Dict[str, Any] = {}
        self._ran = False

    # -- scheduling ----------------------------------------------------

    def schedule_at(
        self, time: float, host: str, handler: Handler, payload: Any = None
    ) -> None:
        """Seed the run with an event (only before :meth:`run`)."""
        if self._ran:
            raise KernelError("kernel already ran; build a new one")
        if host not in self.topology._adjacency:
            raise KernelError(f"unknown host: {host!r}")
        if not time >= 0.0:
            raise KernelError(f"cannot schedule before time zero: {time}")
        self._pending.append((time, host, _as_ref(handler), payload))

    # -- execution -----------------------------------------------------

    def run(self, until: Optional[float] = None) -> int:
        """Drain the event space; returns the number of events fired.

        ``until`` bounds the run to events strictly before that time.
        """
        if self._ran:
            raise KernelError("kernel already ran; build a new one")
        self._ran = True
        if self.serial:
            runtime = ShardRuntime(
                0, set(self.topology.hosts), self.topology, float("inf"),
                seed=self.seed, trace=self.trace_enabled,
            )
            for entry in self._pending:
                runtime.post(*entry)
            return self._drain([runtime], float("inf"), until)
        if self.backend == "process":
            return self._run_process(until)
        runtimes = [
            ShardRuntime(
                shard, set(self.plan.members(shard)), self.topology,
                self.plan.lookahead, seed=self.seed,
                trace=self.trace_enabled,
            )
            for shard in range(self.plan.shards)
        ]
        owner = self.plan.assignment
        for entry in self._pending:
            runtimes[owner[entry[1]]].post(*entry)
        return self._drain(runtimes, self.plan.lookahead, until)

    def _drain(self, shards: List[Any], lookahead: float,
               until: Optional[float]) -> int:
        """The barrier loop, over ``ShardRuntime`` or ``_WorkerShard`` handles."""
        owner = self.plan.assignment
        windows = 0
        fired = 0
        while True:
            gvt: Optional[float] = None
            for shard in shards:
                head = shard.next_event_time()
                if head is not None and (gvt is None or head < gvt):
                    gvt = head
            if gvt is None or (until is not None and gvt >= until):
                break
            window_end = gvt + lookahead
            if until is not None and window_end > until:
                window_end = until
            for shard in shards:
                shard.start(window_end)
            windows += 1
            inboxes: List[List[CrossShardMessage]] = [[] for _ in shards]
            for shard in shards:
                shard_fired, outbox = shard.finish()
                fired += shard_fired
                for message in outbox:
                    inboxes[owner[message.host]].append(message)
            for shard, inbox in zip(shards, inboxes):
                if inbox:
                    shard.deliver(inbox)
        results = [shard.results() for shard in shards]
        if self.trace_enabled:
            self._trace = [entry for trace, _ in results for entry in trace]
        # One shard exchanges nothing: its windows are not barriers.
        barriers = windows if len(shards) > 1 else 0
        self._stats = {
            "backend": "serial" if self.serial else self.backend,
            "shards": len(shards),
            "planned_shards": self.plan.shards,
            "lookahead": self.plan.lookahead,
            "fallback_serial": self.serial,
            "cut_links": self.plan.cut_links,
            "barriers": barriers,
            "barrier_waits": barriers * len(shards),
            "events_fired": fired,
            "events_per_shard": [stats["events_fired"] for _, stats in results],
            "cross_messages": sum(stats["cross_sent"] for _, stats in results),
        }
        return fired

    def _run_process(self, until: Optional[float]) -> int:
        import multiprocessing

        mp = multiprocessing.get_context("spawn")
        owner = self.plan.assignment
        initial: List[List[Tuple[float, str, str, Any]]] = [
            [] for _ in range(self.plan.shards)
        ]
        for entry in self._pending:
            initial[owner[entry[1]]].append(entry)
        pipes = []
        workers = []
        try:
            for shard in range(self.plan.shards):
                parent, child = mp.Pipe()
                worker = mp.Process(
                    target=_worker_main,
                    args=(child, shard, self.plan.members(shard),
                          self.topology, self.plan.lookahead, self.seed,
                          self.trace_enabled, initial[shard]),
                    daemon=True,
                )
                worker.start()
                child.close()
                pipes.append(parent)
                workers.append(worker)
            handles = [_WorkerShard(pipe) for pipe in pipes]
            return self._drain(handles, self.plan.lookahead, until)
        finally:
            for pipe in pipes:
                pipe.close()
            for worker in workers:
                worker.join(timeout=10.0)
                if worker.is_alive():  # pragma: no cover - hang guard
                    worker.terminate()

    # -- results -------------------------------------------------------

    def trace_entries(self) -> List[Tuple[float, str, str, str]]:
        """Canonically ordered trace (independent of sharding)."""
        return sorted(self._trace)

    def trace_digest(self) -> str:
        """SHA-256 over the canonical trace — the determinism oracle.

        Entries are sorted by ``(time, host, handler, payload)`` before
        hashing, so serial and sharded runs of the same scenario with
        the same seed produce the same digest regardless of how hosts
        were partitioned or interleaved inside a window.
        """
        if not self.trace_enabled:
            raise KernelError("run with trace=True to produce a digest")
        digest = hashlib.sha256()
        for time, host, ref, payload in sorted(self._trace):
            digest.update(
                f"{time!r}|{host}|{ref}|{payload}\n".encode("utf-8")
            )
        return digest.hexdigest()

    def stats(self) -> Dict[str, Any]:
        """Aggregated run stats (``kernel_shard_*`` in ``perf.snapshot(kernel=k)``)."""
        return dict(self._stats)
