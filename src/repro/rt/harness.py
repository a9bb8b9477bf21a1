"""Process harness: an RtServer and sockets clients in separate OS processes.

The conformance drivers run both substrates in one process for
byte-capture; this module is the real-deployment shape — a server
child listening on TCP and client children dialing it, each a plain
``python -m repro.rt.harness`` invocation:

::

    python -m repro.rt.harness serve repro.rt.scenarios:echo_server
    python -m repro.rt.harness client repro.rt.scenarios:echo_client \\
        127.0.0.1 40001 '{"count": 500}'

``serve`` resolves a factory returning an :class:`RtServer` (or an ORB
to wrap in one), prints ``RT-READY <host> <port>`` once the socket
listens, and serves until killed.  ``client`` resolves a callable
``fn(host, port, payload) -> dict`` — typically one that binds stubs to
an :class:`~repro.rt.client.RtClient`'s ORB — and prints its result as
JSON.
:func:`spawn_server` / :func:`run_client` wrap both for tests,
benchmarks and examples.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

READY_PREFIX = "RT-READY"


def resolve(spec: str) -> Any:
    """Import ``package.module:attr`` and return the attribute."""
    module_name, _, attr = spec.partition(":")
    if not attr:
        raise ValueError(f"harness spec {spec!r} must look like module:attr")
    module = importlib.import_module(module_name)
    return getattr(module, attr)


def _as_server(factory: Any):
    """Call the factory; accept an RtServer or a bare ORB."""
    from repro.rt.server import RtServer

    produced = factory()
    if isinstance(produced, RtServer):
        return produced
    return RtServer(orb=produced)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    mode = argv.pop(0)
    if mode == "serve":
        spec = argv.pop(0)
        host = argv.pop(0) if argv else "127.0.0.1"
        port = int(argv.pop(0)) if argv else 0
        server = _as_server(resolve(spec))
        server._host, server._port = host, port

        def on_ready(bound_host: str, bound_port: int) -> None:
            print(f"{READY_PREFIX} {bound_host} {bound_port}", flush=True)

        server.serve_forever(on_ready=on_ready)
        return 0
    if mode == "client":
        spec, host, port = argv.pop(0), argv.pop(0), int(argv.pop(0))
        payload = json.loads(argv.pop(0)) if argv else {}
        fn = resolve(spec)
        result = fn(host, port, payload)
        print(json.dumps(result, sort_keys=True), flush=True)
        return 0
    print(f"unknown harness mode {mode!r}", file=sys.stderr)
    return 2


# -- parent-side helpers ---------------------------------------------------


def _child_env() -> Dict[str, str]:
    """Environment for a child that can ``import repro``."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + (os.pathsep + existing if existing else "")
        )
    return env


class ServerProcess:
    """A serving child: spawned, awaited for readiness, then stopped."""

    def __init__(
        self, process: subprocess.Popen, address: Tuple[str, int]
    ) -> None:
        self.process = process
        self.address = address

    def stop(self, timeout: float = 5.0) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                self.process.kill()
                self.process.wait(timeout)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def spawn_server(
    spec: str, host: str = "127.0.0.1", port: int = 0, timeout: float = 20.0
) -> ServerProcess:
    """Start a harness server child; block until it prints readiness."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.rt.harness", "serve", spec, host, str(port)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_child_env(),
    )
    line = process.stdout.readline()
    if not line.startswith(READY_PREFIX):
        process.terminate()
        stderr = process.stderr.read()
        raise RuntimeError(
            f"harness server never became ready (got {line!r}); stderr:\n{stderr}"
        )
    _, bound_host, bound_port = line.split()
    return ServerProcess(process, (bound_host, int(bound_port)))


def run_client(
    spec: str,
    host: str,
    port: int,
    payload: Optional[Dict[str, Any]] = None,
    timeout: float = 60.0,
) -> Dict[str, Any]:
    """Run a harness client child to completion; return its JSON result."""
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.rt.harness",
            "client",
            spec,
            host,
            str(port),
            json.dumps(payload or {}),
        ],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_child_env(),
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"harness client failed ({completed.returncode}):\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    sys.exit(main())
