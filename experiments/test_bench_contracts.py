"""E12 — outlook: preference contracts in negotiation (Section 6 / ref [5]).

"The rating of which QoS characteristic and its level is preferable to
another is depending on the client.  There is no system wide shared
view on QoS levels especially when the price is embraced."

A server offers three characteristics at several priced levels; a
client preference hierarchy (availability first, then freshness, under
a budget) picks among them.  Sweeping the budget traces how the chosen
characteristic/level changes — two clients with different hierarchies
pick differently from the *same* offer set.

Expected shape: utility is non-decreasing in budget; the cheap client
and the availability-focused client choose different candidates at the
same budget.
"""

import pytest

from _tables import print_table
from repro.core.contracts import (
    Candidate,
    CompositeContract,
    LeafContract,
    choose,
    linear_utility,
)

#: The server's offer set: characteristic levels with prices.
OFFERS = [
    Candidate("FaultTolerance", {"replicas": 2}, price=4.0),
    Candidate("FaultTolerance", {"replicas": 3}, price=8.0),
    Candidate("FaultTolerance", {"replicas": 5}, price=20.0),
    Candidate("Actuality", {"max_age": 5.0}, price=0.5),
    Candidate("Actuality", {"max_age": 1.0}, price=2.0),
    Candidate("Actuality", {"max_age": 0.2}, price=6.0),
    Candidate("Compression", {"threshold": 128}, price=1.0),
]


def _availability_contract(budget):
    return CompositeContract(
        "priority",
        [
            LeafContract(
                "FaultTolerance",
                {"replicas": linear_utility(1, 5)},
                budget=budget,
            ),
            LeafContract(
                "Actuality",
                {"max_age": linear_utility(10.0, 0.0)},
                budget=budget,
            ),
            LeafContract("Compression", {}, budget=budget),
        ],
    )


def _freshness_contract(budget):
    return CompositeContract(
        "priority",
        [
            LeafContract(
                "Actuality",
                {"max_age": linear_utility(10.0, 0.0)},
                budget=budget,
            ),
            LeafContract(
                "FaultTolerance",
                {"replicas": linear_utility(1, 5)},
                budget=budget,
            ),
        ],
    )


BUDGETS = [0.25, 1.0, 3.0, 7.0, 25.0]


def _budget_sweep():
    rows = []
    choices = {}
    for budget in BUDGETS:
        chosen_a, score_a = choose(_availability_contract(budget), OFFERS)
        chosen_f, score_f = choose(_freshness_contract(budget), OFFERS)
        rows.append(
            (
                budget,
                _describe(chosen_a), round(score_a, 3),
                _describe(chosen_f), round(score_f, 3),
            )
        )
        choices[budget] = (chosen_a, score_a, chosen_f, score_f)
    return rows, choices


def _describe(candidate):
    if candidate is None:
        return "(nothing affordable)"
    params = ", ".join(f"{k}={v}" for k, v in candidate.granted.items())
    return f"{candidate.characteristic}({params}) @{candidate.price}"


def test_bench_e12_preference_sweep(benchmark):
    rows, choices = benchmark.pedantic(_budget_sweep, rounds=1, iterations=1)
    print_table(
        "E12 — chosen offer vs budget, for two preference hierarchies",
        ["budget", "availability-first choice", "score",
         "freshness-first choice", "score"],
        rows,
    )
    # Shape: scores never decrease as budget grows.
    for client in (1, 3):
        scores = [choices[b][client] for b in BUDGETS]
        assert scores == sorted(scores)
    # No system-wide view: with budget to spare the two clients pick
    # different characteristics from the same offer set.
    chosen_a = choices[25.0][0]
    chosen_f = choices[25.0][2]
    assert chosen_a.characteristic != chosen_f.characteristic
    # Rich availability client buys the 5-replica level.
    assert choices[25.0][0].granted == {"replicas": 5}
    # Poor clients can still afford *something*.
    assert choices[1.0][0] is not None


def test_bench_e12_scoring_wall_clock(benchmark):
    """Wall-clock cost of scoring the full offer set."""
    contract = _availability_contract(10.0)
    chosen, score = benchmark(choose, contract, OFFERS)
    assert chosen is not None
