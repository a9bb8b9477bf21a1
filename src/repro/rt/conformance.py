"""Netsim/real conformance: one client, two transports, identical bytes.

Each :class:`~repro.rt.scenarios.Scenario` runs twice — once through
the simulated network (:class:`NetsimDriver`) and once over asyncio
TCP against in-process :class:`~repro.rt.server.RtServer` instances
(:class:`RtDriver`) — through the same :class:`Driver` code on an
ordinary client ORB, under an identical determinism discipline:
request-id allocator reset, GIOP/IOR cache reset, same servants, same
request script.  The runner then asserts:

- **Outcome records match exactly** — same replies, same exceptions
  (type, minor code, unexecuted marking), same admission and retry
  decisions.
- **Request bytes reaching each server match byte-for-byte** — every
  scenario, always: the client-side encode path (GIOP + module
  envelopes) is provably substrate-free.
- **Reply bytes match byte-for-byte** for deterministic scenarios;
  scenarios exercising the scheduler compare replies *canonically* —
  decoded and re-encoded with the timing-dependent retry-after hint
  values scrubbed, so the structure (which requests got hints, which
  got shed, every other byte) still must match exactly.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, List, Tuple

from repro.orb import giop, ior as ior_mod
from repro.orb.ami import ReplyFuture
from repro.orb.contexts import RETRY_AFTER_CONTEXT
from repro.orb.exceptions import SystemException, is_unexecuted
from repro.orb.ior import IOR
from repro.orb.modules.base import clear_envelope_tables
from repro.orb.orb import ORB
from repro.orb.request import Request, command as make_command, reset_request_ids
from repro.orb.stub import Stub
from repro.orb.world import World
from repro.reliability.mediator import ReliabilityMediator
from repro.reliability.policy import ReliabilityPolicy
from repro.rt.client import RtClient
from repro.rt.scenarios import Scenario
from repro.rt.server import RtServer, make_rt_orb


def _record(op: str, fn: Callable[[], Any], hint: bool = False) -> dict:
    """One outcome record: value or exception, substrate-free fields only."""
    try:
        value = fn()
    except SystemException as error:
        return {
            "op": op,
            "ok": False,
            "error": type(error).__name__,
            "message": str(error),
            "minor": getattr(error, "minor", 0),
            "unexecuted": is_unexecuted(error),
            "retry_after_hint": getattr(error, "retry_after", None) is not None,
        }
    return {"op": op, "ok": True, "value": value, "retry_after_hint": hint}


def _future_record(op: str, future: ReplyFuture) -> dict:
    """A record for one future of a flushed window."""
    try:
        reply = future.reply()
    except SystemException:
        return _record(op, future.result)  # no reply: raises the same failure
    return _record(
        op, reply.value, RETRY_AFTER_CONTEXT in (reply.service_contexts or {})
    )


class _CallStub(Stub):
    """A minimal stub exposing the mediator-interceptable entry point."""

    def call(self, operation: str, *args: Any) -> Any:
        return self._call(operation, *args)


class Driver:
    """What a scenario drives requests through, written once.

    Every request-issuing method goes through :attr:`orb`, an ordinary
    client ORB; the two subclasses only build, start and close a
    deployment around it.  So the suite compares the *same client
    code* on two transports, not two clients.
    """

    #: The client ORB (set by the subclass before any request).
    orb: ORB

    def __init__(self, scenario: Scenario) -> None:
        #: host -> {"in": [request wires], "out": [reply wires]}.
        self.wires: Dict[str, Dict[str, List[bytes]]] = {}
        self._taps: List[Tuple[ORB, Callable]] = []
        for host in scenario.server_hosts:
            capture = self.wires[host] = {"in": [], "out": []}

            def tap(direction: str, wire: bytes, capture=capture) -> None:
                capture[direction].append(bytes(wire))

            server_orb = self.orb_for(host)
            server_orb.add_wire_observer(tap)
            self._taps.append((server_orb, tap))

    def orb_for(self, host: str) -> ORB:
        """The serving ORB on logical host ``host``."""
        raise NotImplementedError

    def start(self) -> None:
        """Bring the deployment up (after the scenario built its servants)."""

    def close(self) -> None:
        for server_orb, tap in self._taps:
            server_orb.remove_wire_observer(tap)

    # -- issuing requests: the same code on either transport --------------

    def invoke(self, request: Request) -> dict:
        return _record(request.operation, lambda: self.orb.invoke(request))

    def window(self, requests: List[Request]) -> List[dict]:
        futures = [self.orb.invoke_deferred(request) for request in requests]
        self.orb.ami.flush()
        return [
            _future_record(request.operation, future)
            for request, future in zip(requests, futures)
        ]

    def call(self, stub: Any, operation: str, *args: Any) -> dict:
        """One call on a stub bound to :attr:`orb`, whatever is woven in."""
        return _record(operation, lambda: getattr(stub, operation)(*args))

    def command(
        self, target: IOR, command_target: str, operation: str, *args: Any
    ) -> dict:
        request = make_command(target, command_target, operation, *args)
        return _record(f"cmd:{operation}", lambda: self.orb.invoke(request))

    def assign(self, target: IOR, module_name: str) -> None:
        self.orb.qos_transport.assign(target, module_name)

    def client_module(self, name: str) -> Any:
        return self.orb.qos_transport.require_module(name)

    def reliable_call(
        self, target: IOR, operation: str, *args: Any, policy: ReliabilityPolicy
    ) -> dict:
        stub = _CallStub(self.orb, target)
        mediator = ReliabilityMediator(policy)
        mediator.install(stub)
        record = _record(operation, lambda: stub.call(operation, *args))
        record["retries"] = mediator.retries_used
        return record


class NetsimDriver(Driver):
    """The scenario over the simulated network, one world per run."""

    def __init__(self, scenario: Scenario) -> None:
        self.world = World()
        names = ["client"] + list(scenario.server_hosts) + list(scenario.dead_hosts)
        self.world.lan(names, latency=0.0005)
        self.orb = self.world.orb("client")
        super().__init__(scenario)

    def orb_for(self, host: str) -> ORB:
        return self.world.orb(host)


def _dead_address() -> Tuple[str, int]:
    """A localhost port with nothing listening (connect must fail)."""
    probe = socket.socket()
    try:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()
    finally:
        probe.close()


class RtDriver(Driver):
    """The same scenario over asyncio TCP between real sockets."""

    def __init__(self, scenario: Scenario) -> None:
        self.servers: Dict[str, RtServer] = {
            host: RtServer(orb=make_rt_orb(host)) for host in scenario.server_hosts
        }
        self.client = RtClient({host: _dead_address() for host in scenario.dead_hosts})
        self.orb = self.client.orb
        super().__init__(scenario)

    def orb_for(self, host: str) -> ORB:
        return self.servers[host].orb

    def start(self) -> None:
        """Bind the listeners; the client dials each on first use."""
        for host, server in self.servers.items():
            self.client.transport.addresses[host] = server.start()

    def close(self) -> None:
        super().close()
        self.client.close()
        for server in self.servers.values():
            server.stop()


# -- running one scenario on one substrate --------------------------------


def _run_scenario(scenario: Scenario, driver_class: type) -> Dict[str, Any]:
    # Identical starting state for both runs of a scenario.
    reset_request_ids()
    giop.clear_caches()
    ior_mod.clear_caches()
    clear_envelope_tables()
    driver = driver_class(scenario)
    try:
        iors = scenario.build(driver.orb_for)
        driver.start()
        records = scenario.drive(driver, iors)
        return {"records": records, "wires": driver.wires}
    finally:
        driver.close()


def run_scenario_netsim(scenario: Scenario) -> Dict[str, Any]:
    return _run_scenario(scenario, NetsimDriver)


def run_scenario_rt(scenario: Scenario) -> Dict[str, Any]:
    return _run_scenario(scenario, RtDriver)


# -- comparison ------------------------------------------------------------


def canonical_reply(wire: bytes) -> bytes:
    """Re-encode a reply with timing-dependent hint values scrubbed.

    The scheduler's retry-after hint is a number of seconds derived
    from its clock — wall seconds on one substrate, simulated on the
    other — so its *value* is the one legitimately substrate-dependent
    byte sequence on the wire.  Zeroing it (and only it) before
    comparison still pins down everything else: which replies carried
    a hint, every result, every exception, every id.
    """
    reply = giop.decode_reply(wire)
    contexts = {
        key: (0.0 if key == RETRY_AFTER_CONTEXT else value)
        for key, value in (reply.service_contexts or {}).items()
    }
    return giop.encode_reply(
        reply.request_id,
        reply.result,
        reply.exception,
        service_contexts=contexts or None,
    )


class ConformanceFailure(AssertionError):
    pass


def compare_runs(
    scenario: Scenario, netsim: Dict[str, Any], rt: Dict[str, Any]
) -> None:
    """Assert the two substrates agreed; raise with specifics if not."""
    if netsim["records"] != rt["records"]:
        raise ConformanceFailure(
            f"[{scenario.name}] outcome records diverge:\n"
            f"  netsim: {netsim['records']}\n"
            f"  rt:     {rt['records']}"
        )
    for host in scenario.server_hosts:
        sim_wires = netsim["wires"].get(host, {"in": [], "out": []})
        rt_wires = rt["wires"].get(host, {"in": [], "out": []})
        _compare_stream(scenario, host, "in", sim_wires["in"], rt_wires["in"])
        sim_out, rt_out = sim_wires["out"], rt_wires["out"]
        if not scenario.deterministic_replies:
            sim_out = [canonical_reply(wire) for wire in sim_out]
            rt_out = [canonical_reply(wire) for wire in rt_out]
        _compare_stream(scenario, host, "out", sim_out, rt_out)


def _compare_stream(
    scenario: Scenario,
    host: str,
    direction: str,
    sim: List[bytes],
    rt: List[bytes],
) -> None:
    if len(sim) != len(rt):
        raise ConformanceFailure(
            f"[{scenario.name}] {host}/{direction}: {len(sim)} messages on "
            f"netsim vs {len(rt)} on rt"
        )
    for index, (a, b) in enumerate(zip(sim, rt)):
        if a != b:
            diverge = next(
                (i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)),
            )
            raise ConformanceFailure(
                f"[{scenario.name}] {host}/{direction} message {index}: bytes "
                f"diverge at offset {diverge} "
                f"(netsim {len(a)}B: ...{a[max(0, diverge - 8):diverge + 8]!r}, "
                f"rt {len(b)}B: ...{b[max(0, diverge - 8):diverge + 8]!r})"
            )


def run_conformance(scenario: Scenario) -> Dict[str, Any]:
    """Run ``scenario`` on both substrates and assert they agree.

    Returns the two runs (for further inspection by tests).
    """
    netsim = run_scenario_netsim(scenario)
    rt = run_scenario_rt(scenario)
    compare_runs(scenario, netsim, rt)
    return {"netsim": netsim, "rt": rt}
