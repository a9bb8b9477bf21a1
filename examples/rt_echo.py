#!/usr/bin/env python
"""Real-transport quickstart: the same ORB, two OS processes, real TCP.

Everything above the wire is the code the simulator runs — GIOP/CDR,
IORs, the POA, QoS modules — but here the bytes cross an actual
socket between a server process and this one:

1. spawn a server child (``python -m repro.rt.harness serve ...``)
   hosting an echo servant on an ephemeral port;
2. open an :class:`~repro.rt.client.RtClient` — an ordinary client
   ORB whose transport is a socket — bind a stub to ``client.orb`` and
   call it exactly as a netsim client would;
3. run a client child too, so the bytes really cross processes both
   ways;
4. print what travelled.

Run:  python examples/rt_echo.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.orb.ior import IIOPProfile, IOR  # noqa: E402
from repro.rt.client import RtClient  # noqa: E402
from repro.rt.harness import run_client, spawn_server  # noqa: E402
from repro.rt.scenarios import EchoStub  # noqa: E402

ECHO_IOR = IOR("IDL:test/Echo:1.0", IIOPProfile("server", 683, "echo"), [])


def main() -> int:
    print("spawning an RtServer child process ...")
    with spawn_server("repro.rt.scenarios:echo_server") as server:
        host, port = server.address
        print(f"server listening on {host}:{port}")

        # In-process client: the IOR names the *logical* host; only the
        # transport's address map knows where the socket actually lives.
        with RtClient({"server": (host, port)}) as client:
            echo = EchoStub(client.orb, ECHO_IOR)
            print("echo('hello wire')  ->", echo.echo("hello wire"))
            print("whoami()           ->", echo.whoami())
            print("add(20, 22)        ->", echo.add(20, 22))
            # Deferred calls share one AMI window: written back-to-back
            # on the socket, then drained.
            futures = [echo.send_deferred("echo", f"pipelined-{i}") for i in range(4)]
            print("pipelined window   ->", [f.result() for f in futures])

        # And a second OS process as the client, via the harness.
        result = run_client(
            "repro.rt.scenarios:echo_client", host, port, {"count": 200}
        )
        print(
            f"client child: {result['correct']}/{result['count']} correct, "
            f"{result['requests_per_s']:,.0f} req/s"
        )
    print("server stopped; done.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
