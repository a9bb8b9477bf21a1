"""Spans woven from outside: wrappers around public entry points.

The benchmark measures the product without editing it.  ``Tracer.wrap``
replaces a public function or method with a wrapper that records one
span per call — name, layer, start, end, parent span and the id of the
invocation (root span) it belongs to — into an in-memory list that is
written out once, when the run ends.

A layer's *self time* is its spans' duration minus the part of that
interval their child spans cover, so the self times of one invocation
add up to its root span's duration.

Threads: each thread keeps its own span stack.  A span opened with
``bridge=True`` (the socket round trip) additionally offers itself as
parent to root spans that open on *other* threads while it is open —
that is how the server half of an rt invocation, which runs on the
server's event-loop thread, lands under the client's round trip.  One
client, one connection, closed loop: at most one bridge is open.
"""

from __future__ import annotations

import importlib
import json
import threading
from time import perf_counter_ns
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

# Span record layout (a list, mutated once to set END).
NAME, LAYER, START, END, PARENT, INVOCATION = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.warnings: List[str] = []
        self._stacks: Dict[int, List[int]] = {}
        self._bridge = -1
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- weaving ----------------------------------------------------------

    def wrap(
        self,
        owners: Sequence[Any],
        attr: str,
        name: str,
        layer: str,
        bridge: bool = False,
    ) -> bool:
        """Wrap ``attr`` on every owner (a class or a module).

        Several owners name the aliases of one function (``from x import
        f`` copies).  A wrap point that no longer exists is dropped with
        a warning: tracing never fails a run.
        """
        wrapped = False
        for owner in owners:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            setattr(owner, attr, self._wrapper(original, name, layer, bridge))
            self._patched.append((owner, attr, original))
            wrapped = True
        if not wrapped:
            self.warnings.append(f"wrap point {name} is gone; its span is dropped")
        return wrapped

    def _wrapper(self, fn: Any, name: str, layer: str, bridge: bool) -> Any:
        spans = self.spans
        stacks = self._stacks
        get_ident = threading.get_ident
        clock = perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            ident = get_ident()
            stack = stacks.get(ident)
            if stack is None:
                stack = stacks[ident] = []
            index = len(spans)
            parent = stack[-1] if stack else self._bridge
            invocation = spans[parent][INVOCATION] if parent >= 0 else index
            record = [name, layer, 0, 0, parent, invocation]
            spans.append(record)
            stack.append(index)
            if bridge:
                self._bridge = index
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
                if bridge:
                    self._bridge = -1

        traced.__wrapped__ = fn
        return traced

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- export -----------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "layer": span[LAYER],
                            "start_ns": span[START],
                            "end_ns": span[END],
                            "parent": span[PARENT],
                            "invocation": span[INVOCATION],
                        }
                    )
                )
                handle.write("\n")


def self_times(spans: Sequence[Sequence[Any]]) -> List[int]:
    """Self time of every span: duration minus child coverage.

    Child intervals are clipped to the parent and merged before they
    are subtracted, so siblings that overlap (a child on another
    thread, an async sibling) are not subtracted twice and a child
    that outlives its parent takes no more than the parent has.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            children.setdefault(parent, []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def self_totals(spans: Sequence[Sequence[Any]]) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Summed self ns, grouped by layer and grouped by span name.

    By construction either grouping adds up to the summed duration of
    the root spans.
    """
    by_layer: Dict[str, int] = {}
    by_name: Dict[str, int] = {}
    for span, self_ns in zip(spans, self_times(spans)):
        by_layer[span[LAYER]] = by_layer.get(span[LAYER], 0) + self_ns
        by_name[span[NAME]] = by_name.get(span[NAME], 0) + self_ns
    return by_layer, by_name


def layer_total_s(spans: Iterable[Sequence[Any]], name: str) -> float:
    """Summed *duration* (not self time) of every span called ``name``."""
    return sum(span[END] - span[START] for span in spans if span[NAME] == name) / 1e9


#: The wrap points every workload shares: (owners, attribute, layer).
#: The span name is ``<last owner component>.<attribute>``.  Workloads
#: add their concrete servant class, whose ``_dispatch`` overrides the
#: base one.
WRAP_POINTS: List[Tuple[Tuple[str, ...], str, str]] = [
    (("repro.orb.stub:Stub",), "_call", "orb.stub"),
    (("repro.orb.stub:Stub",), "_invoke", "orb.stub"),
    (("repro.orb.orb:ORB",), "invoke", "orb.stub"),
    (("repro.core.mediator:MediatorChain",), "invoke", "core.mediator"),
    (("repro.reliability.mediator:ReliabilityMediator",), "invoke", "reliability"),
    (("repro.orb.modules.base:QoSModule",), "send_request", "orb.modules"),
    (("repro.orb.modules.base:QoSModule",), "wrap", "orb.modules"),
    (("repro.orb.modules.base:QoSModule",), "unwrap", "orb.modules"),
    (
        ("repro.orb.modules.base", "repro.orb.orb", "repro.rt.client"),
        "encode_envelope",
        "orb.modules",
    ),
    (
        ("repro.orb.modules.base", "repro.orb.orb", "repro.rt.client"),
        "decode_envelope",
        "orb.modules",
    ),
    (("repro.orb.giop",), "encode_request", "orb.giop"),
    (("repro.orb.giop",), "decode_request", "orb.giop"),
    (("repro.orb.giop",), "encode_reply", "orb.giop"),
    (("repro.orb.giop",), "decode_reply", "orb.giop"),
    (("repro.rt.transport:NetsimTransport",), "round_trip", "netsim.transport"),
    (("repro.netsim.network:Network",), "send", "netsim.transport"),
    (("repro.orb.orb:ORB",), "handle_incoming", "orb.server"),
    (("repro.orb.poa:POA",), "dispatch", "orb.poa"),
    (("repro.sched.scheduler:RequestScheduler",), "admit", "sched"),
    (("repro.orb.servant:Servant",), "_dispatch", "servant"),
    (("repro.rt.client:RtClient",), "outcome", "rt.client"),
    (("repro.rt.client:RtClient",), "invoke_window", "rt.client"),
    (("repro.rt.transport:RtConnection",), "round_trip", "rt.transport"),
    (("repro.rt.transport:RtConnection",), "round_trip_many", "rt.transport"),
    (
        ("repro.scenario.runner", "repro.scenario.configurator"),
        "build_deployment",
        "scenario.build",
    ),
    (("repro.scenario.runner",), "run_scenario", "scenario.run"),
    (("repro.netsim.kernel:EventKernel",), "run", "netsim.kernel"),
    (("repro.netsim.parallel.kernel:ShardedKernel",), "run", "netsim.parallel"),
    (("repro.netsim.parallel.shard:ShardRuntime",), "run_window", "netsim.parallel"),
]


def _resolve(path: str) -> Optional[Any]:
    """``module`` or ``module:Class`` to the object, None when gone."""
    module_name, _, attr = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
        return getattr(owner, attr) if attr else owner
    except (ImportError, AttributeError):
        return None


def install(
    tracer: Tracer,
    servant_classes: Sequence[type] = (),
    only: Optional[Sequence[str]] = None,
) -> None:
    """Weave the shared wrap points (all, or the span names in ``only``)
    plus the given servant classes."""
    for paths, attr, layer in WRAP_POINTS:
        label = paths[0].rpartition(":")[2].rpartition(".")[2]
        name = f"{label}.{attr}"
        if only is not None and name not in only:
            continue
        owners = [owner for owner in map(_resolve, paths) if owner is not None]
        tracer.wrap(owners, attr, name, layer, bridge=(layer == "rt.transport"))
    base_servant = _resolve("repro.orb.servant:Servant")
    for cls in servant_classes:
        # Generated skeletons override the base dispatch; wrap the class
        # that defines the override (plain servants already resolve to
        # the wrapped Servant one).
        definer = next(base for base in cls.__mro__ if "_dispatch" in vars(base))
        if definer is not base_servant:
            tracer.wrap([definer], "_dispatch", "Servant._dispatch", "servant")
