"""The reliability layer's acceptance gate, on the simulated clock.

A client runs 25-call transactions (24 idempotent ``ping`` calls, then
one non-idempotent ``add`` as the commit) against a three-replica
group while each replica crashes independently with 10 % probability
per call slot.  The crash lands *before* the call (fail-stop), so every
failure is a provably-unexecuted forward-leg one, and the draws are a
pure function of ``(seed, txn, call)``: both contenders face the same
fault environment and the run replays exactly.

- **baseline** — a plain stub bound to the primary; the first failed
  call aborts the transaction.
- **reliable** — the same stub behind the reliability mediator; retry
  and failover re-issue on a surviving replica.

Goodput is committed transactions per simulated second.
"""

import random

from repro.orb.exceptions import SystemException
from repro.reliability import ReliabilityPolicy, reliable

from tests.reliability.helpers import (
    CounterStub,
    build_replica_world,
    executions,
)

REPLICAS = ("a", "b", "c")
CRASH_RATE = 0.10
TXN_CALLS = 25
TXNS = 60
SEED = 2001


def crashed_replicas(txn, call):
    rng = random.Random((SEED * 1_000_003 + txn) * 1_009 + call)
    return [host for host in REPLICAS if rng.random() < CRASH_RATE]


def run_transactions(with_recovery):
    """Returns ``(committed, goodput, servants)`` for one contender."""
    world, client, group_ior, servants = build_replica_world(REPLICAS)
    stub = CounterStub(client, group_ior)
    if with_recovery:
        stub = reliable(
            stub,
            ReliabilityPolicy(
                max_retries=3,
                base_backoff=0.0005,
                jitter=0.0,
                breaker_threshold=8,
                breaker_cooldown=0.002,
                seed=SEED,
            ),
        )
    committed = 0
    for txn in range(TXNS):
        try:
            for call in range(TXN_CALLS):
                downed = crashed_replicas(txn, call)
                for host in downed:
                    world.faults.crash(host)
                try:
                    if call < TXN_CALLS - 1:
                        stub.ping()
                    else:
                        stub.add(f"txn{txn}", 1)
                finally:
                    for host in downed:
                        world.faults.recover(host)
        except SystemException:
            continue  # transaction aborted: its work is wasted
        committed += 1
    return committed, committed / world.clock.now, servants


def test_reliable_goodput_is_3x_baseline_with_no_duplicate_commits():
    base_committed, base_goodput, base_servants = run_transactions(False)
    rel_committed, rel_goodput, rel_servants = run_transactions(True)

    assert 0 < base_committed < rel_committed
    assert rel_goodput >= 3.0 * base_goodput

    for servants, committed in (
        (base_servants, base_committed),
        (rel_servants, rel_committed),
    ):
        counts = [executions(servants, f"txn{txn}") for txn in range(TXNS)]
        assert max(counts) <= 1  # no non-idempotent commit ran twice
        assert sum(counts) == committed  # committed == executed
