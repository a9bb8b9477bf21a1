"""Recorded conformance scenarios, replayable on either substrate.

Each scenario is substrate-blind: ``build(orb_for)`` installs servants
(and schedulers) on named *logical* hosts through whatever ORB the
runner hands it, and ``drive(driver, iors)`` issues the exact same
request sequence through a :class:`~repro.rt.conformance.Driver`.
The conformance runner executes each scenario once on netsim and once
over asyncio TCP and asserts the wire traffic matches byte for byte
(see :mod:`repro.rt.conformance` for the tolerance applied to the
scheduler's timing hints).

The module also exports the factories the process harness spawns
(:func:`echo_server`, :func:`echo_client`) so benchmarks and the
two-process example share the same servant.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List

from repro.ciphers.keyex import KeyExchange
from repro.core.binding import QoSProvider
from repro.core.mediator import MediatorChain
from repro.core.negotiation import Range
from repro.orb.ior import GROUP_TAG, IIOPProfile, IOR, QOS_TAG, TaggedComponent
from repro.orb.modules.base import binding_key
from repro.orb.request import Request, TRANSPORT_TARGET
from repro.orb.servant import Servant
from repro.orb.stub import Stub
from repro.qos import weave
from repro.qos.compression.payload import CompressionImpl
from repro.reliability.mediator import ReliabilityMediator
from repro.reliability.policy import ReliabilityPolicy

ECHO_REPO_ID = "IDL:test/Echo:1.0"


class ConformanceEchoServant(Servant):
    """The deterministic servant every scenario talks to."""

    _repo_id = ECHO_REPO_ID
    _default_service_time = 0.001

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.calls = 0

    def echo(self, text: str) -> str:
        self.calls += 1
        return text.upper()

    def whoami(self) -> str:
        self.calls += 1
        return self.label

    def add(self, a: Any, b: Any) -> Any:
        self.calls += 1
        return a + b

    def fail(self, message: str) -> None:
        self.calls += 1
        raise ValueError(message)


class SlowEchoServant(ConformanceEchoServant):
    """Modeled service time long enough that a burst cannot drain.

    Both substrates deliver a pipelined window within far less than
    50 ms, so the scheduler sees the identical queue-depth sequence on
    simulated and wall clocks — admission decisions match exactly.
    """

    _default_service_time = 0.05


class Scenario:
    """One recorded exchange: server setup plus a driven request script."""

    name = ""
    #: Raw reply bytes match across substrates.  False only where the
    #: scheduler embeds timing hints (retry-after seconds), which are
    #: compared canonically — structure identical, hint values scrubbed.
    deterministic_replies = True
    #: Logical hosts that run a serving ORB.
    server_hosts = ("server",)
    #: Logical hosts present in IORs but with nothing listening
    #: (failover scenarios dial them and must fail identically).
    dead_hosts = ()

    def build(self, orb_for) -> Dict[str, IOR]:
        """Install servants via ``orb_for(host)``; return named IORs."""
        raise NotImplementedError

    def drive(self, driver, iors: Dict[str, IOR]) -> List[dict]:
        """Issue the scripted requests; return outcome records."""
        raise NotImplementedError


class EchoScenario(Scenario):
    """Plain GIOP/IIOP traffic: results, user errors, a oneway."""

    name = "echo"

    def build(self, orb_for) -> Dict[str, IOR]:
        orb = orb_for("server")
        return {"echo": orb.poa.activate_object(ConformanceEchoServant("plain"))}

    def drive(self, driver, iors: Dict[str, IOR]) -> List[dict]:
        target = iors["echo"]
        return [
            driver.invoke(Request(target, "echo", ("hello rt",))),
            driver.invoke(Request(target, "echo", ("ünïcödé ✓",))),
            driver.invoke(Request(target, "add", (2, 3))),
            driver.invoke(Request(target, "fail", ("nope",))),
            driver.invoke(
                Request(target, "echo", ("ping",), response_expected=False)
            ),
            driver.invoke(Request(target, "whoami", ())),
        ]


class CompressionScenario(Scenario):
    """The compression module's envelope on both substrates."""

    name = "compression"

    def build(self, orb_for) -> Dict[str, IOR]:
        orb = orb_for("server")
        component = TaggedComponent(QOS_TAG, {"characteristics": ["compression"]})
        ior = orb.poa.activate_object(
            ConformanceEchoServant("compressed"), components=[component]
        )
        return {"echo": ior}

    def drive(self, driver, iors: Dict[str, IOR]) -> List[dict]:
        target = iors["echo"]
        driver.assign(target, "compression")
        driver.client_module("compression").set_codec(binding_key(target), "rle")
        return [
            driver.invoke(Request(target, "echo", ("badger " * 80,))),
            driver.invoke(Request(target, "echo", ("incompressible?",))),
            driver.command(target, TRANSPORT_TARGET, "loaded_modules"),
        ]


class CryptoScenario(Scenario):
    """Key exchange plus encrypted traffic; seeded DH keeps it replayable."""

    name = "crypto"

    def build(self, orb_for) -> Dict[str, IOR]:
        orb = orb_for("server")
        component = TaggedComponent(QOS_TAG, {"characteristics": ["privacy"]})
        ior = orb.poa.activate_object(
            ConformanceEchoServant("encrypted"), components=[component]
        )
        return {"echo": ior}

    def drive(self, driver, iors: Dict[str, IOR]) -> List[dict]:
        target = iors["echo"]
        driver.assign(target, "crypto")
        local = driver.client_module("crypto")
        endpoint = KeyExchange(seed=11)
        exchanged = driver.command(
            target, "crypto", "dh_exchange", "session-1", endpoint.public_value
        )
        local.install_key("session-1", endpoint.shared_key(exchanged["value"]))
        local.set_cipher(binding_key(target), "xtea-ctr", "session-1")
        return [
            exchanged,
            driver.invoke(Request(target, "echo", ("attack at dawn",))),
            driver.invoke(Request(target, "whoami", ())),
        ]


class WfqOverloadScenario(Scenario):
    """WFQ admission under 2x queue capacity: same shed set on both."""

    name = "wfq-overload"
    deterministic_replies = False

    def build(self, orb_for) -> Dict[str, IOR]:
        orb = orb_for("server")
        orb.install_scheduler("wfq", max_depth=2)
        return {"echo": orb.poa.activate_object(SlowEchoServant("wfq"))}

    def drive(self, driver, iors: Dict[str, IOR]) -> List[dict]:
        target = iors["echo"]
        window = [Request(target, "echo", (f"load-{i}",)) for i in range(8)]
        return driver.window(window)


class BackpressureScenario(Scenario):
    """Retry-after hints past the backpressure watermark, both clocks."""

    name = "backpressure"
    deterministic_replies = False

    def build(self, orb_for) -> Dict[str, IOR]:
        orb = orb_for("server")
        orb.install_scheduler("fifo", max_depth=16, backpressure_depth=2)
        return {"echo": orb.poa.activate_object(SlowEchoServant("paced"))}

    def drive(self, driver, iors: Dict[str, IOR]) -> List[dict]:
        target = iors["echo"]
        window = [Request(target, "echo", (f"burst-{i}",)) for i in range(4)]
        return driver.window(window)


class FailoverScenario(Scenario):
    """Replica failover: the dead primary fails unexecuted, s2 answers."""

    name = "failover"
    server_hosts = ("s2",)
    dead_hosts = ("s1",)

    def build(self, orb_for) -> Dict[str, IOR]:
        orb = orb_for("s2")
        live = orb.poa.activate_object(
            ConformanceEchoServant("s2"), object_key="rep-echo"
        )
        dead = IOR(ECHO_REPO_ID, IIOPProfile("s1", 683, "rep-echo"), [])
        group = IOR(
            ECHO_REPO_ID,
            dead.profile,
            [
                TaggedComponent(
                    GROUP_TAG,
                    {
                        "group": "echo-group",
                        "members": [dead.to_string(), live.to_string()],
                    },
                )
            ],
        )
        return {"group": group}

    def drive(self, driver, iors: Dict[str, IOR]) -> List[dict]:
        policy = ReliabilityPolicy(max_retries=3, failover=True)
        return [
            driver.reliable_call(iors["group"], "whoami", policy=policy),
            driver.reliable_call(iors["group"], "echo", "still here", policy=policy),
        ]


ARCHIVE_QIDL = """
interface Archive provides Compression {
    string fetch(in string path);
    void store(in string path, in string content);
    long size();
};
"""


@functools.lru_cache(maxsize=None)
def _archive_module():
    """The generated Archive stub and server base, compiled once."""
    return weave(ARCHIVE_QIDL, "rt_conformance_archive")


class WovenStackScenario(Scenario):
    """The paper's whole stack: a QIDL-generated stub, a mediator chain
    and an assigned QoS module, with only the wire underneath differing.

    The reliability policy sets no deadline on purpose:
    ``maqs.reliability.deadline`` carries an absolute reading of the
    client's clock, so its bytes would legitimately differ between a
    simulated and a wall clock.
    """

    name = "woven-stack"

    def build(self, orb_for) -> Dict[str, IOR]:
        class ArchiveServant(_archive_module().ArchiveServerBase):
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

        orb = orb_for("server")
        provider = QoSProvider(orb.world, orb.host_name, ArchiveServant())
        provider.support(
            "Compression",
            CompressionImpl(),
            capabilities={"threshold": Range(64, 4096)},
            module_name="compression",
        )
        return {"archive": provider.activate("archive")}

    def drive(self, driver, iors: Dict[str, IOR]) -> List[dict]:
        target = iors["archive"]
        driver.assign(target, "compression")
        driver.client_module("compression").set_codec(binding_key(target), "rle")
        stub = _archive_module().ArchiveStub(driver.orb, target)
        MediatorChain(
            ReliabilityMediator(ReliabilityPolicy(max_retries=2))
        ).install(stub)
        ruled = ("=" * 72 + "\n" + " " * 8 + "badger\n") * 12  # runs, so rle bites
        return [
            driver.call(stub, "store", "notes/badgers.txt", ruled),
            driver.call(stub, "fetch", "notes/badgers.txt"),
            driver.call(stub, "size"),
        ]


#: The conformance suite, in replay order.
ALL_SCENARIOS = (
    EchoScenario(),
    CompressionScenario(),
    CryptoScenario(),
    WfqOverloadScenario(),
    BackpressureScenario(),
    FailoverScenario(),
    WovenStackScenario(),
)


# -- process-harness factories (see repro.rt.harness) ---------------------


def echo_server():
    """Factory: an RtServer hosting one echo servant (harness child)."""
    from repro.rt.server import RtServer, make_rt_orb

    orb = make_rt_orb("server")
    orb.poa.activate_object(ConformanceEchoServant("subprocess"), object_key="echo")
    return RtServer(orb)


class EchoStub(Stub):
    """Hand-written stub for the echo servant (no QIDL needed)."""

    def echo(self, text: str) -> str:
        return self._call("echo", text)

    def whoami(self) -> str:
        return self._call("whoami")

    def add(self, a: Any, b: Any) -> Any:
        return self._call("add", a, b)


def echo_client(host: str, port: int, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Harness child: run ``count`` echo round trips, report throughput."""
    import time

    from repro.rt.client import RtClient

    count = int(payload.get("count", 100))
    ior = IOR(ECHO_REPO_ID, IIOPProfile("server", 683, "echo"), [])
    with RtClient({"server": (host, port)}) as client:
        echo = EchoStub(client.orb, ior)
        replies = 0
        start = time.perf_counter()
        for index in range(count):
            if echo.echo(f"msg-{index}") == f"MSG-{index}":
                replies += 1
        elapsed = time.perf_counter() - start
    return {
        "count": count,
        "correct": replies,
        "elapsed_s": elapsed,
        "requests_per_s": count / elapsed if elapsed > 0 else 0.0,
    }
