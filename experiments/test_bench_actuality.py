"""E8 — actuality (freshness) of data (Section 6).

A quote server republishes a price every 0.5 s while a client polls it
at 10 Hz through the Actuality mediator.  Sweeping the negotiated
``max_age`` trades staleness for saved round trips.

Expected shape: fetch savings climb with max_age (toward the polling/
update ratio); observed worst-case staleness stays bounded by
``max_age`` plus one update interval; max_age=0 equals the always-fetch
baseline.
"""

import pytest

from _tables import print_table
from repro.core.binding import QoSProvider, establish_qos
from repro.core.negotiation import Range
from repro.orb import World
from repro.qos.actuality.freshness import ActualityImpl, ActualityMediator
from repro.workloads.apps import make_quote_servant_class, quote_module

UPDATE_EVERY = 0.5
POLL_RATE = 10.0
DURATION = 20.0
MAX_AGES = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0]


def _deploy():
    world = World()
    world.add_host("client")
    world.add_host("server")
    world.connect("client", "server", latency=0.004, bandwidth_bps=10e6)
    servant = make_quote_servant_class()()
    provider = QoSProvider(world, "server", servant)
    provider.support(
        "Actuality",
        ActualityImpl().attach_clock(world.clock),
        capabilities={"max_age": Range(0.0, 10.0)},
    )
    ior = provider.activate("quotes")
    stub = quote_module.QuoteFeedStub(world.orb("client"), ior)
    return world, servant, stub


def _run_for_max_age(max_age):
    world, servant, stub = _deploy()
    mediator = ActualityMediator(cacheable={"quote"}, max_age=max_age)
    establish_qos(
        stub, "Actuality", {"max_age": Range(0.0, 10.0, preferred=max_age)},
        mediator=mediator,
    )

    truth = {"price": 100.0, "version": 0}

    def publish():
        truth["version"] += 1
        truth["price"] = 100.0 + truth["version"]
        servant.publish("ACME", truth["price"])

    world.kernel.every(UPDATE_EVERY, publish, until=DURATION)

    staleness_samples = []

    def poll():
        observed = stub.quote("ACME")
        # Staleness in versions behind the truth, converted to seconds.
        lag_versions = truth["version"] - max(0, round(observed - 100.0))
        staleness_samples.append(lag_versions * UPDATE_EVERY)

    world.kernel.every(1.0 / POLL_RATE, poll, until=DURATION)
    world.kernel.run()

    polls = len(staleness_samples)
    savings = mediator.hits / polls if polls else 0.0
    worst = max(staleness_samples) if staleness_samples else 0.0
    mean = sum(staleness_samples) / polls if polls else 0.0
    return savings, worst, mean, mediator.hits, mediator.misses


def _sweep():
    rows = []
    by_age = {}
    for max_age in MAX_AGES:
        savings, worst, mean, hits, misses = _run_for_max_age(max_age)
        rows.append((max_age, savings * 100, mean, worst, hits, misses))
        by_age[max_age] = (savings, worst, mean)
    return rows, by_age


def test_bench_e8_staleness_vs_savings(benchmark):
    rows, by_age = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print_table(
        "E8 — freshness budget vs saved round trips "
        "(10 Hz polls, update every 0.5 s)",
        ["max_age s", "fetches saved %", "mean stale s", "worst stale s",
         "hits", "misses"],
        rows,
    )
    # Shape: savings increase monotonically with the freshness budget.
    savings = [by_age[a][0] for a in MAX_AGES]
    assert savings == sorted(savings)
    # max_age = 0 caches nothing.
    assert by_age[0.0][0] == 0.0
    # Worst-case staleness is bounded by max_age + one update interval.
    for max_age in MAX_AGES:
        assert by_age[max_age][1] <= max_age + UPDATE_EVERY + 1e-9
    # A generous budget saves most fetches.
    assert by_age[5.0][0] > 0.9


def test_bench_e8_cache_lookup_wall_clock(benchmark):
    """Wall-clock cost of a mediator cache hit."""
    world, servant, stub = _deploy()
    mediator = ActualityMediator(cacheable={"quote"}, max_age=1e9)
    establish_qos(stub, "Actuality", mediator=mediator)
    stub.quote("ACME")  # warm the cache

    benchmark(stub.quote, "ACME")
    assert mediator.hits > 0
