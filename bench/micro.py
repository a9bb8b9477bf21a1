"""Micro-benchmarks: public functions of one layer, called directly.

Each group returns ``{metric name: value}``.  A figure is the median,
over five passes after one discarded pass, of the mean host µs per call
in that pass.  ``hit`` variants repeat one message, so the codec's span
and context LRUs replay; ``miss`` variants walk more unique messages
than the 256-entry LRUs hold, so every call takes the slow path.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns
from typing import Any, Callable, Dict, Sequence

import payloads

PASSES = 5
#: Unique items of a ``miss`` variant: twice the codec's LRU size.
UNIQUE = 512


def per_call_us(fn: Callable[[Any], Any], items: Sequence[Any]) -> float:
    samples = []
    for _ in range(PASSES + 1):
        start = perf_counter_ns()
        for item in items:
            fn(item)
        samples.append((perf_counter_ns() - start) / len(items) / 1e3)
    return statistics.median(samples[1:])


def cdr(workload: Any) -> Dict[str, float]:
    """``write_any`` / ``read_any`` on each rung of the size ladder."""
    from repro.orb.cdr import CDRDecoder, CDREncoder

    def encode(value: Any) -> bytes:
        encoder = CDREncoder()
        encoder.write_any(value)
        return encoder.getvalue()

    metrics = {}
    rng = payloads.rng_for(workload.seed, "micro-cdr")
    for size_class, count in (("small", 600), ("medium", 200), ("large", 40)):
        values = [payloads.struct_payload(rng, size_class) for _ in range(count)]
        wires = [encode(value) for value in values]
        metrics[f"orb.cdr.encode_us.{size_class}"] = per_call_us(encode, values)
        metrics[f"orb.cdr.decode_us.{size_class}"] = per_call_us(
            lambda wire: CDRDecoder(wire).read_any(), wires
        )
        metrics[f"orb.cdr.wire_bytes.{size_class}"] = float(len(wires[0]))
    return metrics


def giop(workload: Any) -> Dict[str, float]:
    """Request and reply framing of the small struct, hit and miss."""
    from repro.orb import giop as codec
    from repro.orb.ior import IOR, IIOPProfile
    from repro.orb.request import Request

    target = IOR("IDL:bench/Echo:1.0", IIOPProfile("server", 683, "echo"))
    rng = payloads.rng_for(workload.seed, "micro-giop")
    unique = [payloads.struct_payload(rng) for _ in range(UNIQUE)]
    variants = {"hit": [unique[0]] * UNIQUE, "miss": unique}
    metrics = {}
    for variant, values in variants.items():
        requests = [Request(target, "echo", (value,)) for value in values]
        request_wires = [codec.encode_request(request) for request in requests]
        reply_wires = [codec.encode_reply(7, value) for value in values]
        for name, fn, items in (
            ("encode_request", codec.encode_request, requests),
            ("decode_request", codec.decode_request, request_wires),
            ("encode_reply", lambda value: codec.encode_reply(7, value), values),
            ("decode_reply", codec.decode_reply, reply_wires),
        ):
            metrics[f"orb.giop.{name}_us.{variant}"] = per_call_us(fn, items)
    return metrics


def modules(workload: Any) -> Dict[str, float]:
    """The module envelope and the compression module's wrap/unwrap, on
    the request bodies the workload's oracle batch put on the wire."""
    from repro.orb.modules.base import decode_envelope, encode_envelope

    module = workload.module
    context = module.binding_config(workload.binding)
    opened = [decode_envelope(wire) for wire in workload.request_wires]
    bodies = [module.unwrap(params, payload)[0] for _, params, payload in opened]
    return {
        "orb.modules.envelope_us": per_call_us(
            lambda item: decode_envelope(encode_envelope(*item)), opened
        ),
        "orb.modules.wrap_us": per_call_us(
            lambda body: module.wrap(body, context), bodies
        ),
        "orb.modules.unwrap_us": per_call_us(
            lambda item: module.unwrap(item[1], item[2]), opened
        ),
    }


def framing(workload: Any) -> Dict[str, float]:
    """MQRT framing of one small request: frame, and reassemble."""
    from repro.rt.framing import FrameDecoder, encode_frame

    wires = workload.prepare(-2, 400)
    frames = [encode_frame(wire) for wire in wires]
    decoder = FrameDecoder()
    return {
        "rt.framing.encode_frame_us": per_call_us(encode_frame, wires),
        "rt.framing.feed_us": per_call_us(decoder.feed, frames),
    }


GROUPS = {"cdr": cdr, "giop": giop, "modules": modules, "framing": framing}
