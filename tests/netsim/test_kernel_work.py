"""Work counts for the event path: Python calls per fired event.

Host time on a shared machine is too noisy to gate a change to the
kernel path; the number of Python calls it makes is not.  Each row runs
a small soak (2x4 hosts, 0.2 s, 20 heartbeats per host) once to warm the
handler-reference and path-table caches, then counts every Python-level
``call`` whose code lives under ``src/repro`` while the same program
runs again.  Both counts are pinned exactly: a change to the hot path
that moves one edits this table in its own diff.

Comprehension bodies are not counted.  Python 3.12 inlines list, dict
and set comprehensions (PEP 709), so they raise a ``call`` event on
3.11 and none on 3.12; skipping them keeps one table valid on both.
"""

import os
import sys

import pytest

import repro
from repro.netsim.kernel import EventKernel
from repro.netsim.parallel import ShardedKernel
from repro.workloads.soak import (
    SerialScenarioDriver,
    schedule_soak,
    soak_config,
    soak_topology,
)

SRC = os.path.dirname(repro.__file__) + os.sep
#: Code objects of comprehensions, which only some interpreters call.
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

#: runtime -> (events fired, Python calls under ``src/repro`` in ``run``).
PINNED = {
    "serial": (2144, 16214),
    "sharded_1": (2144, 13716),
}


def _serial(topology, cfg):
    driver = SerialScenarioDriver(EventKernel(), topology, seed=5)
    schedule_soak(driver, cfg)
    return driver.run


def _sharded_1(topology, cfg):
    kernel = ShardedKernel(topology, shards=1, seed=5)
    schedule_soak(kernel, cfg)
    return kernel.run


RUNTIMES = {"serial": _serial, "sharded_1": _sharded_1}


def count_calls(run):
    """``(run(), Python calls under src/repro while it ran)``.

    The hook is installed for this one measurement: CPython unsets a
    profile hook that raises, so one installed for the whole session
    could be gone by the time a later measurement reads it.
    """
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (
            event == "call"
            and code.co_filename.startswith(SRC)
            and code.co_name not in INLINED
        ):
            calls += 1

    sys.setprofile(hook)
    try:
        fired = run()
    finally:
        sys.setprofile(None)
    return fired, calls


@pytest.mark.parametrize("name", sorted(RUNTIMES))
def test_calls_per_event_are_pinned(name):
    topology = soak_topology(clusters=2, hosts_per_cluster=4)
    cfg = soak_config(topology, duration=0.2, heartbeats=20)
    make = RUNTIMES[name]
    make(topology, cfg)()  # warm-up: same topology, so its path rows too
    fired, calls = count_calls(make(topology, cfg))
    assert (fired, calls) == PINNED[name], (
        f"{name}: {calls} calls / {fired} events = {calls / fired:.2f} "
        "per event; update PINNED if the change to the event path is meant"
    )
