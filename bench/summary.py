"""Order statistics shared by the runner, the worker and compare.py."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def quartiles(samples: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile, and the sample count."""
    if len(samples) < 2:
        value = float(samples[0])
        return {"median": value, "q1": value, "q3": value, "n": len(samples)}
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def summarize(samples: Sequence[float], higher_is_better: bool) -> Dict[str, object]:
    """A metric's record: the reported ``value`` plus what it came from.

    The value is the *fast quartile* of the samples (timed batches, or
    fresh starts).  On a shared box other tenants only ever add time,
    in bursts that slow whole batches; the fast quartile stays on
    undisturbed batches until three quarters of a run is disturbed,
    where the median gives up at one half.
    """
    stats = quartiles(samples)
    value = stats["q3"] if higher_is_better else stats["q1"]
    return dict(stats, value=value, samples=list(samples))


def percentile(samples: Sequence[float], share: float) -> float:
    """Nearest-rank percentile; ``share`` in (0, 1]."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]
