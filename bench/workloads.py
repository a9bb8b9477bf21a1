"""The benchmark's workloads.

Each workload builds its deployment in ``setup`` (everything a user
pays before the first call), generates inputs in ``prepare`` and checks
outputs in ``verify`` (both outside the clock), and times one batch in
``run``.  ``run`` returns ``(elapsed_ns, ops, unit_ns, outputs)`` where
``unit_ns`` holds host nanoseconds *per operation* at the finest grain
the workload can time without changing what it measures: one call on
the netsim stub path, one chunk of strict request/reply on a socket,
one pass over the scenario matrix, one kernel run.

Load model: invocation workloads are a closed loop with one client —
a CORBA caller blocks for its reply.  ``scenario_matrix`` is an open
loop in *simulated* time: arrivals are simulated instants, so the
generator is never late by construction.
"""

from __future__ import annotations

import glob
import hashlib
import os
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, List, Optional, Sequence, Tuple

import payloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Batch = Tuple[int, int, List[float], Any]


class Workload:
    name = ""
    #: What one operation is, and how load is offered.
    op = ""
    loop = "closed loop, 1 client, 1 connection"
    #: Operations per batch: timed (full run), timed (smoke run), traced,
    #: and the oracle batch — the same in full and smoke runs, so that one
    #: set of pins serves both.
    batch_ops = smoke_ops = trace_ops = oracle_ops = 1
    #: Micro-benchmark groups (micro.py) of the layers that do work here.
    micro: Tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.ops = self.smoke_ops if smoke else self.batch_ops
        #: Simulated outputs observed so far; compared with the pins.
        self.oracles: Dict[str, Any] = {}
        #: Parts of set-up timed on their own (per-layer metrics).
        self.setup_parts: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, batch: int, ops: Optional[int] = None) -> Any:
        raise NotImplementedError

    def run(self, inputs: Any) -> Batch:
        raise NotImplementedError

    def oracle_batch(self, inputs: Any) -> Batch:
        """Run the first, untimed batch and record the simulated
        outputs it produced in ``self.oracles``."""
        raise NotImplementedError

    def verify(self, inputs: Any, outputs: Any) -> Tuple[int, int]:
        """``(attempted, failed)``: operations checked, and found wrong."""
        raise NotImplementedError

    def trace_inputs(self, ops: int) -> Any:
        return self.prepare(-1, ops)

    def traced_run(self, inputs: Any) -> Batch:
        """The path the traced run takes (default: the timed one)."""
        return self.run(inputs)

    def servant_classes(self) -> Sequence[type]:
        return ()

    def layer_metrics(self, batch: Batch) -> Dict[str, float]:
        """Per-layer figures only this workload can give, from one
        untraced batch of the traced run."""
        return {}

    def close(self) -> None:
        pass


# -- invocations through a stub on the simulated network ------------------


def _stamped_calls(call: Any, inputs: Sequence[tuple]) -> Batch:
    """Call once per input; one clock read per call, inside the loop."""
    count = len(inputs)
    stamps = [0] * (count + 1)
    replies: List[Any] = [None] * count
    clock = perf_counter_ns
    stamps[0] = clock()
    for index in range(count):
        replies[index] = call(*inputs[index])
        stamps[index + 1] = clock()
    unit = [float(stamps[i + 1] - stamps[i]) for i in range(count)]
    return stamps[count] - stamps[0], count, unit, replies


class NetsimInvocation(Workload):
    """Two hosts on a simulated LAN; the client calls through a stub."""

    def build_world(self) -> None:
        from repro.orb import World
        from repro.orb.request import reset_request_ids

        reset_request_ids()
        self.world = World()
        self.world.lan(["client", "server"], latency=0.001)
        self.client_orb = self.world.orb("client")
        self.server_orb = self.world.orb("server")

    def oracle_batch(self, inputs: Any) -> Batch:
        digest = hashlib.sha256()
        #: Request wires as the server saw them, for the micro-benchmarks.
        self.request_wires: List[bytes] = []

        def tap(direction: str, wire: bytes) -> None:
            if direction == "out":
                digest.update(wire)
            else:
                self.request_wires.append(wire)

        network = self.world.network
        sim_start, bytes_start = self.world.clock.now, network.bytes_sent
        self.server_orb.add_wire_observer(tap)
        try:
            result = self.run(inputs)
        finally:
            self.server_orb.remove_wire_observer(tap)
        calls = result[1]
        self.oracles.update(
            {
                "sim.rtt_ms": (self.world.clock.now - sim_start) / calls * 1e3,
                "sim.wire_bytes_per_call": (network.bytes_sent - bytes_start) / calls,
                "reply_sha256": digest.hexdigest(),
            }
        )
        return result

    def run(self, inputs: Any) -> Batch:
        return _stamped_calls(self.call, inputs)


def _echo_classes() -> Tuple[type, type]:
    from repro.orb.servant import Servant
    from repro.orb.stub import Stub

    class EchoServant(Servant):
        _repo_id = "IDL:bench/Echo:1.0"

        def echo(self, value: Any) -> Any:
            return value

    class EchoStub(Stub):
        def echo(self, value: Any) -> Any:
            return self._call("echo", value)

    return EchoServant, EchoStub


class EchoHot(NetsimInvocation):
    name = "echo_hot"
    op = "verified two-way echo(P) invocation, the same ~300 B struct every call"
    batch_ops, smoke_ops, trace_ops, oracle_ops = 10_000, 400, 2_000, 240
    micro = ("giop",)

    def setup(self) -> None:
        self.build_world()
        self.servant_class, stub_class = _echo_classes()
        ior = self.server_orb.poa.activate_object(self.servant_class())
        self.call = stub_class(self.client_orb, ior).echo
        self.payload = payloads.struct_payload(payloads.rng_for(self.seed, "hot"))

    def prepare(self, batch: int, ops: Optional[int] = None) -> Any:
        return [(self.payload,)] * (ops or self.ops)

    def verify(self, inputs: Any, outputs: Any) -> Tuple[int, int]:
        failed = sum(1 for (sent,), reply in zip(inputs, outputs) if reply != sent)
        return len(inputs), failed

    def servant_classes(self) -> Sequence[type]:
        return (self.servant_class,)


class EchoCold(EchoHot):
    name = "echo_cold"
    op = "verified two-way echo(P) invocation, every payload unique, sizes 8:3:1"
    batch_ops, smoke_ops, trace_ops, oracle_ops = 2_400, 120, 1_200, 240
    micro = ("giop", "cdr")

    def prepare(self, batch: int, ops: Optional[int] = None) -> Any:
        rng = payloads.rng_for(self.seed, "cold", batch)
        #: Size class of each call of the latest batch.
        self.classes = payloads.mixed_classes(rng, ops or self.ops)
        return [(payloads.struct_payload(rng, name),) for name in self.classes]


ARCHIVE_QIDL = """
interface Archive provides Compression {
    string fetch(in string path);
    void store(in string path, in string content);
    long size();
};
"""


class QosBound(NetsimInvocation):
    name = "qos_bound"
    op = (
        "verified store(name, 256 B doc) through a QIDL stub with a reliability "
        "mediator chain, the compression module (identity codec) and a wfq scheduler"
    )
    batch_ops, smoke_ops, trace_ops, oracle_ops = 5_000, 200, 2_000, 200
    micro = ("giop", "modules")

    def setup(self) -> None:
        import repro.qos as qos
        from repro.core.binding import QoSProvider
        from repro.core.mediator import MediatorChain
        from repro.core.negotiation import Range
        from repro.qos.compression.payload import CompressionImpl
        from repro.reliability import ReliabilityMediator, ReliabilityPolicy

        started = perf_counter()
        generated = qos.weave(ARCHIVE_QIDL, "bench_archive")
        self.setup_parts["qidl.compile_s"] = perf_counter() - started

        class ArchiveServant(generated.ArchiveServerBase):
            _default_service_time = 0.0005

            def __init__(self) -> None:
                super().__init__()
                self.files: Dict[str, str] = {}

            def fetch(self, path: str) -> str:
                return self.files.get(path, "")

            def store(self, path: str, content: str) -> None:
                self.files[path] = content

            def size(self) -> int:
                return len(self.files)

        self.build_world()
        self.servant = ArchiveServant()
        provider = QoSProvider(self.world, "server", self.servant)
        provider.support(
            "Compression",
            CompressionImpl(),
            capabilities={"threshold": Range(64, 4096)},
            module_name="compression",
        )
        ior = provider.activate("archive")
        self.scheduler = self.server_orb.install_scheduler(policy="wfq")
        # The identity codec keeps the full envelope and wrap/unwrap path
        # without a pure-Python codec loop hiding the framework's cost.
        self.binding = self.client_orb.qos_transport.assign(ior, "compression")
        self.module = self.client_orb.qos_transport.module("compression")
        self.module.set_codec(self.binding, "identity")
        stub = generated.ArchiveStub(self.client_orb, ior)
        self.reliability = ReliabilityMediator(ReliabilityPolicy(deadline=1.0))
        MediatorChain(self.reliability).install(stub)
        self.call = stub.store

    def prepare(self, batch: int, ops: Optional[int] = None) -> Any:
        rng = payloads.rng_for(self.seed, "qos", batch)
        return [
            (f"doc-{batch}-{index}", payloads.document(rng))
            for index in range(ops or self.ops)
        ]

    def verify(self, inputs: Any, outputs: Any) -> Tuple[int, int]:
        files = self.servant.files
        failed = sum(
            1
            for (name, doc), reply in zip(inputs, outputs)
            if reply is not None or files.get(name) != doc
        )
        files.clear()
        # A retry means a call failed once: the workload is built so that
        # none does.
        return len(inputs), failed + self.reliability.retries_used

    def servant_classes(self) -> Sequence[type]:
        return (type(self.servant),)


# -- the same echo over asyncio TCP on host loopback ----------------------


class RtLoopback(Workload):
    name = "rt_loopback"
    op = (
        "verified strict request/reply echo over asyncio TCP "
        "(host loopback, not a real link), timed on the client loop thread"
    )
    batch_ops, smoke_ops, trace_ops, oracle_ops = 2_000, 200, 2_000, 200
    micro = ("giop", "framing")
    #: Requests per timed chunk: one hand-off to the loop thread each.
    chunk = 100

    def setup(self) -> None:
        from repro.orb.request import reset_request_ids
        from repro.rt.client import RtClient
        from repro.rt.server import RtServer, make_rt_orb

        reset_request_ids()
        self.servant_class, _ = _echo_classes()
        self.server_orb = make_rt_orb("server")
        self.ior = self.server_orb.poa.activate_object(
            self.servant_class(), object_key="echo"
        )
        self.server = RtServer(self.server_orb)
        self.server.start()
        self.client = RtClient({"server": self.server.address})
        self.connection = self.client.connection("server")
        self.payload = payloads.struct_payload(payloads.rng_for(self.seed, "hot"))

    def _requests(self, count: int) -> List[Any]:
        from repro.orb.request import Request

        return [Request(self.ior, "echo", (self.payload,)) for _ in range(count)]

    def prepare(self, batch: int, ops: Optional[int] = None) -> Any:
        from repro.orb import giop

        return [giop.encode_request(r) for r in self._requests(ops or self.ops)]

    def timed(self, wires: Sequence[bytes]) -> Tuple[List[bytes], float]:
        return self.connection.timed_serial(wires)

    def run(self, inputs: Any) -> Batch:
        replies: List[bytes] = []
        unit: List[float] = []
        total = 0.0
        for base in range(0, len(inputs), self.chunk):
            wires = inputs[base : base + self.chunk]
            got, elapsed = self.timed(wires)
            replies.extend(got)
            unit.append(elapsed * 1e9 / len(wires))
            total += elapsed
        return int(total * 1e9), len(inputs), unit, replies

    def oracle_batch(self, inputs: Any) -> Batch:
        result = self.run(inputs)
        replies = result[3]
        digest = hashlib.sha256()
        for wire in replies:
            digest.update(wire)
        self.oracles.update(
            {
                "sim.wire_bytes_per_call": (
                    sum(map(len, inputs)) + sum(map(len, replies))
                )
                / len(inputs),
                "reply_sha256": digest.hexdigest(),
            }
        )
        return result

    def verify(self, inputs: Any, outputs: Any) -> Tuple[int, int]:
        from repro.orb import giop

        # The transport returns one reply per request or raises, so only
        # the replies' contents are left to check.
        expected = self.payload
        failed = 0
        for reply in outputs:
            if not isinstance(reply, giop.Reply):
                reply = giop.decode_reply(reply)
            if reply.exception is not None or reply.result != expected:
                failed += 1
        return len(outputs), failed

    # The traced run goes the way an application does: one RtClient call
    # per request from the caller's thread, handed to the loop thread.
    def trace_inputs(self, ops: int) -> Any:
        return [(request,) for request in self._requests(ops)]

    def traced_run(self, inputs: Any) -> Batch:
        # outcome() is invoke() short of unpacking the reply, which
        # verify() wants whole.
        return _stamped_calls(self.client.outcome, inputs)

    def servant_classes(self) -> Sequence[type]:
        return (self.servant_class,)

    def close(self) -> None:
        self.client.close()
        self.server.stop()


class RtPipelined(RtLoopback):
    name = "rt_pipelined"
    op = (
        "verified echo over asyncio TCP (host loopback, not a real link), "
        "written in windows of 64 and drained"
    )
    loop = "closed loop, 1 client, 1 connection, a window of 64 in flight"
    batch_ops, smoke_ops, trace_ops, oracle_ops = 4_096, 256, 2_048, 256
    chunk = 64

    def timed(self, wires: Sequence[bytes]) -> Tuple[List[bytes], float]:
        return self.connection.timed_pipelined(wires)

    def trace_inputs(self, ops: int) -> Any:
        requests = self._requests(ops)
        return [
            (requests[base : base + self.chunk],)
            for base in range(0, ops, self.chunk)
        ]

    def traced_run(self, inputs: Any) -> Batch:
        elapsed, windows, unit, replies = _stamped_calls(
            self.client.invoke_window, inputs
        )
        return (
            elapsed,
            windows * self.chunk,
            [ns / self.chunk for ns in unit],
            [reply for window in replies for reply in window],
        )


# -- the scenario fleet ----------------------------------------------------


class ScenarioMatrix(Workload):
    name = "scenario_matrix"
    op = "served scenario flow; one batch is one pass over every spec x stack cell"
    loop = (
        "open loop in simulated time (arrivals are simulated instants: "
        "generator lateness is 0 by construction), one cell after another"
    )

    def setup(self) -> None:
        from repro.scenario import runner
        from repro.scenario.configurator import DEFAULT_STACKS
        from repro.scenario.spec import load_spec

        self.runner = runner
        started = perf_counter()
        specs = [
            load_spec(path)
            for path in sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.toml")))
        ]
        self.setup_parts["scenario.load_spec_s"] = perf_counter() - started
        # Stacks are ORB-tier concerns: a shard-tier spec runs once.  A
        # smoke run keeps every spec but only the first stack.
        self.cells = [
            (spec, stack)
            for spec in specs
            for stack in (
                DEFAULT_STACKS
                if spec.tier == "orb" and not self.smoke
                else DEFAULT_STACKS[:1]
            )
        ]

    def prepare(self, batch: int, ops: Optional[int] = None) -> Any:
        return self.cells

    def run(self, inputs: Any) -> Batch:
        # Looked up per pass, not bound at import: the traced run
        # replaces the module attribute.
        run_scenario = self.runner.run_scenario
        clock = perf_counter_ns
        results = []
        #: Host seconds of each cell of the latest pass.
        self.cell_seconds: List[float] = []
        served = 0
        begin = clock()
        for spec, stack in inputs:
            start = clock()
            result = run_scenario(spec, stack)
            self.cell_seconds.append((clock() - start) / 1e9)
            served += result.served
            results.append(result)
        elapsed = clock() - begin
        # Cells differ tenfold in cost per flow, so a median over cells
        # would jump between cell types; the pass is the unit.
        return elapsed, served, [elapsed / served], results

    @staticmethod
    def _cell_outputs(result: Any) -> Dict[str, Any]:
        return {
            "flow_digest": result.exporter.digest(),
            "campaign_digest": result.campaign_digest,
            "served": result.served,
            "failures": result.failures,
        }

    def oracle_batch(self, inputs: Any) -> Batch:
        batch = self.run(inputs)
        for (spec, stack), result in zip(inputs, batch[3]):
            self.oracles[f"cell.{spec.name}/{stack.name}"] = self._cell_outputs(result)
        return batch

    def verify(self, inputs: Any, outputs: Any) -> Tuple[int, int]:
        """Flows offered, and those of cells that broke an SLO or whose
        outputs moved since the first pass.  Failures the chaos campaign
        injects are simulated outputs: they are pinned, not counted."""
        attempted = failed = 0
        for (spec, stack), result in zip(inputs, outputs):
            attempted += result.offered
            reference = self.oracles[f"cell.{spec.name}/{stack.name}"]
            same = self._cell_outputs(result) == reference
            if result.violations or not same:
                failed += result.offered
        return attempted, failed

    def layer_metrics(self, batch: Batch) -> Dict[str, float]:
        _, served, _, results = batch
        metrics: Dict[str, float] = {
            "scenario.served": float(served),
            "scenario.failures": float(sum(r.failures for r in results)),
            "scenario.slo_violations": float(sum(len(r.violations) for r in results)),
        }
        for (spec, _), seconds in zip(self.cells, self.cell_seconds):
            key = f"scenario.cell_s.{spec.name}"
            metrics[key] = metrics.get(key, 0.0) + seconds
        started = perf_counter()
        for result in results:
            result.exporter.dumps()
            result.exporter.digest()
        metrics["scenario.export_s"] = perf_counter() - started
        return metrics


# -- the bare event kernels -------------------------------------------------


class KernelSoak(Workload):
    name = "kernel_soak"
    op = (
        "event fired by the serial EventKernel on the 8x8-cluster soak; "
        "one batch is one run"
    )
    loop = "batch: one simulation run to completion, bare handlers, no ORB"
    duration, smoke_duration, oracle_duration = 2.0, 0.1, 0.5

    def setup(self) -> None:
        from repro.workloads.soak import soak_topology

        self.topology = soak_topology(8, 8)
        self.run_duration = self.smoke_duration if self.smoke else self.duration

    def _config(self, duration: float) -> Dict[str, Any]:
        from repro.workloads.soak import soak_config

        return soak_config(
            self.topology,
            duration=duration,
            period=0.004,
            fanout=2,
            remote_ratio=0.3,
            nbytes=20_000,
            heartbeats=200,
        )

    def _serial(self, duration: float) -> Any:
        from repro.netsim.kernel import EventKernel
        from repro.workloads.soak import SerialScenarioDriver, schedule_soak

        driver = SerialScenarioDriver(EventKernel(), self.topology, seed=self.seed)
        schedule_soak(driver, self._config(duration))
        return driver

    def _sharded(self, shards: int, duration: float, trace: bool = False) -> Any:
        from repro.netsim.parallel import ShardedKernel
        from repro.workloads.soak import schedule_soak

        kernel = ShardedKernel(
            self.topology, shards=shards, backend="inline", seed=self.seed, trace=trace
        )
        schedule_soak(kernel, self._config(duration))
        return kernel

    def prepare(self, batch: int, ops: Optional[int] = None) -> Any:
        return self._serial(self.run_duration)

    def run(self, inputs: Any) -> Batch:
        start = perf_counter_ns()
        fired = inputs.run()
        elapsed = perf_counter_ns() - start
        return elapsed, fired, [elapsed / fired], inputs

    def oracle_batch(self, inputs: Any) -> Batch:
        batch = self.run(inputs)
        self.events_fired = batch[1]
        self.oracles[f"events_fired@{self.run_duration}"] = batch[1]
        # Determinism oracle on a quarter-length soak (half a second
        # instead of two): the canonical trace must not depend on how
        # hosts are sharded.
        digests = []
        for shards in (1, 4):
            kernel = self._sharded(shards, self.oracle_duration, trace=True)
            kernel.run()
            digests.append(kernel.trace_digest())
        self.oracles["trace_digest"] = digests[0]
        self.oracles["trace_digest_shards_agree"] = digests[0] == digests[1]
        return batch

    def verify(self, inputs: Any, outputs: Any) -> Tuple[int, int]:
        """Every run must fire the event set the first run fired."""
        fired = self.stats(outputs)["events_fired"]
        wrong = abs(fired - self.events_fired)
        if not self.oracles["trace_digest_shards_agree"]:
            wrong = fired
        return fired, wrong

    def stats(self, outputs: Any) -> Dict[str, Any]:
        return outputs.kernel.stats()

    def layer_metrics(self, batch: Batch) -> Dict[str, float]:
        elapsed, fired, _, driver = batch
        stats = self.stats(driver)
        return {
            "netsim.kernel.ns_per_event": elapsed / fired,
            "netsim.kernel.events_fired": float(fired),
            "netsim.kernel.live_peak": float(stats["live_peak"]),
            "netsim.kernel.compactions": float(stats["compactions"]),
        }


class KernelSharded(KernelSoak):
    name = "kernel_sharded"
    op = (
        "event fired by the 4-shard inline ShardedKernel on the same soak; "
        "one batch is one run"
    )

    def prepare(self, batch: int, ops: Optional[int] = None) -> Any:
        return self._sharded(4, self.run_duration)

    def stats(self, outputs: Any) -> Dict[str, Any]:
        return outputs.stats()

    def layer_metrics(self, batch: Batch) -> Dict[str, float]:
        elapsed, fired, _, kernel = batch
        stats = self.stats(kernel)
        # The speed-up's base is today's serial EventKernel on the same
        # event set, run here and now — not a frozen copy of old code.
        serial_elapsed, serial_fired, _, _ = self.run(self._serial(self.run_duration))
        return {
            "netsim.parallel.ns_per_event": elapsed / fired,
            "netsim.parallel.barriers": float(stats["barriers"]),
            "netsim.parallel.cross_messages": float(stats["cross_messages"]),
            "netsim.parallel.speedup": (serial_elapsed / serial_fired)
            / (elapsed / fired),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (
        EchoHot,
        EchoCold,
        QosBound,
        RtLoopback,
        RtPipelined,
        ScenarioMatrix,
        KernelSoak,
        KernelSharded,
    )
}
