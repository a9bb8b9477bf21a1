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

Two backends execute the protocol: ``inline`` runs every shard in this
process (windows become loop iterations — no IPC, deterministic, and
the right choice on one core), ``process`` fans shards out to spawned
``multiprocessing`` workers and runs the same barrier over pipes.  The
kernel *transparently falls back to the serial*
:class:`~repro.netsim.kernel.EventKernel` drain when the plan has zero
lookahead (a zero-latency cut link would force zero-width windows) or
when the caller demands strict single-heap determinism.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from repro.netsim.kernel import EventKernel, KernelError
from repro.netsim.parallel.messages import CrossShardMessage, handler_ref
from repro.netsim.parallel.plan import ShardPlan, ShardPlanner, TopologySpec
from repro.netsim.parallel.shard import (
    Handler,
    SerialScenarioDriver,
    ShardRuntime,
)

__all__ = ["ShardedKernel"]


def _as_ref(handler: Handler) -> str:
    return handler if isinstance(handler, str) else handler_ref(handler)


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
        while True:
            message = conn.recv()
            op = message[0]
            if op == "window":
                _, window_end, inbox = message
                runtime.deliver(inbox)
                fired = runtime.run_window(window_end)
                conn.send(
                    ("done", runtime.next_event_time(),
                     runtime.take_outbox(), fired)
                )
            elif op == "peek":
                conn.send(("time", runtime.next_event_time()))
            elif op == "finish":
                conn.send(("result", runtime.trace, runtime.stats()))
                return
            else:  # pragma: no cover - protocol guard
                raise KernelError(f"unknown worker op: {op!r}")
    finally:
        conn.close()


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
        strict_determinism: bool = False,
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
        #: zero-width (no progress possible), and strict determinism
        #: asks for the single-heap ordering by definition.
        self.serial = (
            self.plan.shards <= 1
            or self.plan.lookahead <= 0.0
            or strict_determinism
        )
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
        if time < 0.0:
            raise KernelError(f"cannot schedule before time zero: {time}")
        self._pending.append((time, host, _as_ref(handler), payload))

    # -- execution -----------------------------------------------------

    def run(self, until: Optional[float] = None) -> int:
        """Drain the event space; returns the number of events fired.

        ``until`` bounds the run to events strictly before that time,
        mirroring :meth:`EventKernel.run_before`.
        """
        if self._ran:
            raise KernelError("kernel already ran; build a new one")
        self._ran = True
        if self.serial:
            return self._run_serial(until)
        if self.backend == "process":
            return self._run_process(until)
        return self._run_inline(until)

    def _effective_mode(self) -> str:
        return "serial" if self.serial else self.backend

    def _finish_stats(
        self,
        shard_stats: List[Dict[str, Any]],
        barriers: int,
        fired: int,
    ) -> None:
        self._stats = {
            "backend": self._effective_mode(),
            "shards": len(shard_stats),
            "planned_shards": self.plan.shards,
            "lookahead": self.plan.lookahead,
            "fallback_serial": self.serial,
            "cut_links": self.plan.cut_links,
            "barriers": barriers,
            "barrier_waits": sum(s["windows_run"] for s in shard_stats),
            "events_fired": fired,
            "events_per_shard": [s["events_fired"] for s in shard_stats],
            "cross_messages": sum(s["cross_sent"] for s in shard_stats),
        }

    def _run_serial(self, until: Optional[float]) -> int:
        """The transparent fallback: every host on one serial EventKernel."""
        driver = SerialScenarioDriver(
            EventKernel(), self.topology,
            seed=self.seed, trace=self.trace_enabled,
        )
        for time, host, ref, payload in self._pending:
            driver.post(time, host, ref, payload)
        if until is None:
            fired = driver.kernel.run()
        else:
            fired = driver.kernel.run_before(until)
        self._trace = driver.trace
        self._finish_stats([driver.stats()], 0, fired)
        return fired

    def _build_runtimes(self) -> List[ShardRuntime]:
        runtimes = [
            ShardRuntime(
                shard, set(self.plan.members(shard)), self.topology,
                self.plan.lookahead, seed=self.seed,
                trace=self.trace_enabled,
            )
            for shard in range(self.plan.shards)
        ]
        owner = self.plan.assignment
        for time, host, ref, payload in self._pending:
            runtimes[owner[host]].post(time, host, ref, payload)
        return runtimes

    def _run_inline(self, until: Optional[float]) -> int:
        runtimes = self._build_runtimes()
        owner = self.plan.assignment
        lookahead = self.plan.lookahead
        barriers = 0
        fired = 0
        while True:
            gvt: Optional[float] = None
            for runtime in runtimes:
                head = runtime.next_event_time()
                if head is not None and (gvt is None or head < gvt):
                    gvt = head
            if gvt is None or (until is not None and gvt >= until):
                break
            window_end = gvt + lookahead
            if until is not None and window_end > until:
                window_end = until
            for runtime in runtimes:
                fired += runtime.run_window(window_end)
            barriers += 1
            inboxes: List[List[CrossShardMessage]] = [[] for _ in runtimes]
            for runtime in runtimes:
                for message in runtime.take_outbox():
                    inboxes[owner[message.host]].append(message)
            for runtime, inbox in zip(runtimes, inboxes):
                if inbox:
                    runtime.deliver(inbox)
        if self.trace_enabled:
            trace: List[Tuple[float, str, str, str]] = []
            for runtime in runtimes:
                trace.extend(runtime.trace)
            self._trace = trace
        self._finish_stats([r.stats() for r in runtimes], barriers, fired)
        return fired

    def _run_process(self, until: Optional[float]) -> int:
        import multiprocessing

        mp = multiprocessing.get_context("spawn")
        owner = self.plan.assignment
        lookahead = self.plan.lookahead
        shards = self.plan.shards
        initial: List[List[Tuple[float, str, str, Any]]] = [
            [] for _ in range(shards)
        ]
        for entry in self._pending:
            initial[owner[entry[1]]].append(entry)
        pipes = []
        workers = []
        try:
            for shard in range(shards):
                parent, child = mp.Pipe()
                worker = mp.Process(
                    target=_worker_main,
                    args=(child, shard, self.plan.members(shard),
                          self.topology, lookahead, self.seed,
                          self.trace_enabled, initial[shard]),
                    daemon=True,
                )
                worker.start()
                child.close()
                pipes.append(parent)
                workers.append(worker)
            for pipe in pipes:
                pipe.send(("peek",))
            heads: List[Optional[float]] = [pipe.recv()[1] for pipe in pipes]
            inboxes: List[List[CrossShardMessage]] = [[] for _ in range(shards)]
            barriers = 0
            fired = 0
            while True:
                gvt: Optional[float] = None
                for head in heads:
                    if head is not None and (gvt is None or head < gvt):
                        gvt = head
                for inbox in inboxes:
                    for message in inbox:
                        if gvt is None or message.time < gvt:
                            gvt = message.time
                if gvt is None or (until is not None and gvt >= until):
                    break
                window_end = gvt + lookahead
                if until is not None and window_end > until:
                    window_end = until
                for pipe, inbox in zip(pipes, inboxes):
                    pipe.send(("window", window_end, inbox))
                inboxes = [[] for _ in range(shards)]
                for index, pipe in enumerate(pipes):
                    _, head, outbox, shard_fired = pipe.recv()
                    heads[index] = head
                    fired += shard_fired
                    for message in outbox:
                        inboxes[owner[message.host]].append(message)
                barriers += 1
            for pipe in pipes:
                pipe.send(("finish",))
            shard_stats = []
            trace: List[Tuple[float, str, str, str]] = []
            for pipe in pipes:
                _, worker_trace, stats = pipe.recv()
                trace.extend(worker_trace)
                shard_stats.append(stats)
            if self.trace_enabled:
                self._trace = trace
            self._finish_stats(shard_stats, barriers, fired)
            return fired
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
