"""Parallel sharded event kernel (conservative synchronization).

The serial :class:`~repro.netsim.kernel.EventKernel` drains every
scenario through one heap.  This package partitions the simulated
hosts across shards — each with its own heap and clock — and runs them
in bulk-synchronous windows whose width equals the *lookahead*: the
minimum latency of any link crossing the shard cut.  A message sent
during a window can, by construction, only be received in a later
window, so every shard may process its window independently and all
cross-shard traffic is exchanged at the barrier.  When the topology
offers no lookahead (a zero-latency cut link), or one shard is asked
for, the same barrier loop drains a single :class:`ShardRuntime` that
owns every host — the serial fallback is a one-shard run, not a second
engine.

The kernel is a policy/mechanism seam in the sense of the paper:
workloads describe *what* happens (handlers on hosts, messages between
them); shard placement, synchronization and process fan-out are
swappable policy underneath.
"""

from repro.netsim.parallel.kernel import ShardedKernel
from repro.netsim.parallel.messages import (
    CrossShardMessage,
    handler_ref,
    resolve_handler,
)
from repro.netsim.parallel.plan import ShardPlan, ShardPlanner, TopologySpec
from repro.netsim.parallel.shard import ShardContext, ShardRuntime

__all__ = [
    "CrossShardMessage",
    "ShardContext",
    "ShardPlan",
    "ShardPlanner",
    "ShardRuntime",
    "ShardedKernel",
    "TopologySpec",
    "handler_ref",
    "resolve_handler",
]
