"""Auction-engine benchmarks: batched selection + prefix-shared payments.

The acceptance gate of the vectorized auction engine lives here: at a
500-worker / 200-task SOAC instance the payment-determination phase —
the O(W³·T) hot path of Alg. 2, one full greedy rerun per winner in the
scalar oracle (tests/oracles/auction.py) — must run at least 5× faster through the prefix-shared
engine, while producing *exactly* the same winners, selection order,
payments, and monopolists.  The GA and GB baselines, which select on
the same engine cover, must equal their scalar loops at that scale too.

The ``speedup`` gate is hardware-sensitive (wall-clock ratio), so CI
excludes it with ``-k "not speedup"``; the exactness assertions run at
full scale everywhere.  Run the gate locally via::

    pytest benchmarks/test_auction_bench.py -k speedup -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import DATE, GreedyAccuracy, GreedyBid, ReverseAuction, SOACInstance
from repro.auction.engine import batched_greedy_cover, run_auction
from repro.datasets import generate_qatar_living_like

from tests.oracles import (
    greedy_cover,
    reference_auction,
    reference_greedy_accuracy,
    reference_greedy_bid,
    reference_payments,
)

#: The gate scale from the issue: 500 workers, 200 tasks.
GATE_WORKERS = 500
GATE_TASKS = 200
GATE_SEED = 2024
#: A paper-scale IMC2 instance with 70 winners, 13 of them monopolists.
PAPER_SEED = 4


def sparse_instance(
    n_workers: int, n_tasks: int, *, seed: int, density: float = 0.12
) -> SOACInstance:
    """A synthetic auction-scale SOAC instance.

    Each worker bids on ~``density`` of the tasks with accuracies in
    [0.3, 0.95]; requirements follow the paper's U[2, 4] capped at 80%
    of available accuracy so the instance is always feasible.
    """
    rng = np.random.default_rng(seed)
    accuracy = np.where(
        rng.random((n_workers, n_tasks)) < density,
        rng.uniform(0.3, 0.95, (n_workers, n_tasks)),
        0.0,
    )
    bids = rng.uniform(1.0, 10.0, n_workers)
    requirements = np.minimum(
        rng.uniform(2.0, 4.0, n_tasks), 0.8 * accuracy.sum(axis=0)
    )
    return SOACInstance(
        worker_ids=tuple(f"w{i}" for i in range(n_workers)),
        task_ids=tuple(f"t{j}" for j in range(n_tasks)),
        requirements=requirements,
        accuracy=accuracy,
        bids=bids,
        costs=bids.copy(),
        task_values=np.full(n_tasks, 5.0),
    )


@pytest.fixture(scope="module")
def gate_instance() -> SOACInstance:
    return sparse_instance(GATE_WORKERS, GATE_TASKS, seed=GATE_SEED)


def assert_backends_exactly_equal(instance: SOACInstance):
    """Winners, order, payments, monopolists: bit-for-bit equal."""
    reference = reference_auction(instance)
    vectorized = ReverseAuction().run(instance)
    assert vectorized.winner_ids == reference.winner_ids
    assert vectorized.winner_indexes == reference.winner_indexes
    assert vectorized.monopolists == reference.monopolists
    assert set(vectorized.payments) == set(reference.payments)
    for worker_id, payment in reference.payments.items():
        assert vectorized.payments[worker_id] == payment, worker_id
    assert vectorized.social_cost == reference.social_cost
    assert vectorized.total_payment == reference.total_payment
    return reference


def test_backends_exactly_equal_at_gate_scale(gate_instance):
    assert_backends_exactly_equal(gate_instance)


@pytest.mark.parametrize(
    ("auction", "oracle"),
    [
        (GreedyAccuracy(), reference_greedy_accuracy),
        (GreedyBid(), reference_greedy_bid),
    ],
    ids=["GA", "GB"],
)
def test_greedy_baselines_exactly_equal_at_gate_scale(gate_instance, auction, oracle):
    """GA and GB on the engine cover equal their scalar loops."""
    reference = oracle(gate_instance)
    outcome = auction.run(gate_instance)
    assert outcome.winner_indexes == reference.winner_indexes
    assert outcome.payments == reference.payments
    assert outcome.social_cost == reference.social_cost
    assert outcome.total_payment == reference.total_payment


def test_backends_exactly_equal_on_paper_scale_imc2():
    """Realistic sparsity: the instance IMC2 builds from a DATE run.

    Paper-size Qatar-Living-like campaign, requirements capped at 80% of
    available accuracy.  Its many monopolists take the payment
    continuation through the exhausted-candidates path.
    """
    dataset = generate_qatar_living_like(seed=PAPER_SEED)
    instance = SOACInstance.from_truth_discovery(
        dataset, DATE().run(dataset)
    ).with_capped_requirements(0.8)
    reference = assert_backends_exactly_equal(instance)
    assert reference.n_winners >= 50
    assert len(reference.monopolists) >= 5


def test_selection_traces_equal_at_gate_scale(gate_instance):
    """The batched cover replays the scalar greedy round for round."""
    scalar = greedy_cover(gate_instance)
    trace = batched_greedy_cover(gate_instance)
    assert [w for w, _ in scalar] == trace.winners.tolist()
    assert len(trace.residuals) == len(scalar)
    for (_, res_scalar), res_batched in zip(scalar, trace.residuals):
        assert np.array_equal(res_scalar, res_batched)


def test_payment_phase_speedup_gate(gate_instance):
    """The acceptance gate: engine payment phase >= 5x the scalar oracle.

    Times only payment determination (selection is timed separately by
    the pytest-benchmark cases below): the reference reruns the full
    greedy per winner, the engine forks each rerun from the memoized
    shared prefix.  Best-of-N to shrug off scheduler noise.
    """

    def best_of(fn, rounds: int) -> float:
        timings = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            timings.append(time.perf_counter() - start)
        return min(timings)

    selection = greedy_cover(gate_instance)
    trace = batched_greedy_cover(gate_instance)  # warm cache + engine

    t_reference = best_of(
        lambda: reference_payments(gate_instance, selection), rounds=2
    )
    # run_auction includes selection; subtract a fresh selection timing
    # so both sides measure payments only.
    t_cover = best_of(lambda: batched_greedy_cover(gate_instance), rounds=3)
    t_vectorized = (
        best_of(lambda: run_auction(gate_instance), rounds=3) - t_cover
    )
    speedup = t_reference / t_vectorized
    print(
        f"\npayment phase at {GATE_WORKERS}w/{GATE_TASKS}t "
        f"({trace.n_rounds} winners): oracle {t_reference * 1e3:.0f} ms, "
        f"engine {t_vectorized * 1e3:.0f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"engine payment phase only {speedup:.1f}x faster than the oracle"
    )


def test_vectorized_selection(benchmark, gate_instance):
    gate_instance.sparse_accuracy  # build the CSR index once, outside timing
    benchmark.pedantic(
        lambda: batched_greedy_cover(gate_instance), rounds=3, iterations=1
    )


def test_vectorized_full_auction(benchmark, gate_instance):
    benchmark.pedantic(
        lambda: ReverseAuction().run(gate_instance), rounds=3, iterations=1
    )


def test_reference_selection(benchmark, gate_instance):
    benchmark.pedantic(
        lambda: greedy_cover(gate_instance), rounds=3, iterations=1
    )
