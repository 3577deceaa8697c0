"""Micro-benchmarks of the individual pipeline stages.

Not a paper artifact — these isolate where DATE and the auction spend
their time (dependence detection, independence ordering, posterior
update, winner selection, payment determination), which backs the
complexity discussion in Lemma 1 and DESIGN.md §7.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import DATE, ReverseAuction, SOACInstance
from repro.core import DatasetIndex
from repro.core.engine import (
    accuracy_flat,
    independence_flat,
    pairwise_dependence_arrays,
    plain_posterior_groups,
)
from repro.core.falsedist import UniformFalseValues
from repro.datasets import generate_qatar_living_like

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED
from tests.oracles import (
    compute_pairwise_dependence,
    greedy_cover,
    independence_probabilities,
    initial_accuracy_matrix,
    majority_vote,
    run_reference,
    update_accuracy_matrix,
    value_posteriors,
)


@pytest.fixture(scope="module")
def bench_dataset():
    return generate_qatar_living_like(
        seed=BENCH_SEED,
        n_tasks=BENCH_SCALE.n_tasks,
        n_workers=BENCH_SCALE.n_workers,
        n_copiers=BENCH_SCALE.n_copiers,
        target_claims=BENCH_SCALE.target_claims,
    )


@pytest.fixture(scope="module")
def bench_index(bench_dataset):
    return DatasetIndex(bench_dataset)


@pytest.fixture(scope="module")
def bench_accuracy(bench_index):
    return initial_accuracy_matrix(bench_index, 0.5)


@pytest.fixture(scope="module")
def bench_dependence(bench_index, bench_accuracy):
    return compute_pairwise_dependence(
        bench_index,
        majority_vote(bench_index),
        bench_accuracy,
        copy_prob_r=0.4,
        prior_alpha=0.2,
    )


@pytest.fixture(scope="module")
def bench_arrays(bench_index):
    return bench_index.arrays


@pytest.fixture(scope="module")
def bench_dependence_arrays(bench_index, bench_arrays):
    return pairwise_dependence_arrays(
        bench_arrays,
        bench_arrays.majority_codes(),
        np.full(bench_arrays.n_claims, 0.5),
        copy_prob_r=0.4,
        prior_alpha=0.2,
        collision=UniformFalseValues().collision_array(bench_index),
    )


@pytest.fixture(scope="module")
def bench_instance(bench_dataset):
    result = DATE().run(bench_dataset)
    instance = SOACInstance.from_truth_discovery(bench_dataset, result)
    return instance.with_capped_requirements(0.8)


def test_dataset_generation(benchmark):
    benchmark(
        lambda: generate_qatar_living_like(
            seed=BENCH_SEED,
            n_tasks=BENCH_SCALE.n_tasks,
            n_workers=BENCH_SCALE.n_workers,
            n_copiers=BENCH_SCALE.n_copiers,
            target_claims=BENCH_SCALE.target_claims,
        )
    )


def test_index_construction(benchmark, bench_dataset):
    def build():
        index = DatasetIndex(bench_dataset)
        index.arrays.pair_ptr  # force the lazy pair tables
        return index

    benchmark(build)


def test_step1_dependence(benchmark, bench_index, bench_accuracy):
    truths = majority_vote(bench_index)
    benchmark(
        lambda: compute_pairwise_dependence(
            bench_index,
            truths,
            bench_accuracy,
            copy_prob_r=0.4,
            prior_alpha=0.2,
        )
    )


def test_step2_independence(benchmark, bench_index, bench_dependence):
    benchmark(
        lambda: independence_probabilities(
            bench_index, bench_dependence, copy_prob_r=0.4
        )
    )


def test_step3_posteriors_and_accuracy(benchmark, bench_index, bench_accuracy):
    def step():
        posteriors = value_posteriors(bench_index, bench_accuracy)
        return update_accuracy_matrix(bench_index, posteriors)

    benchmark(step)


def test_full_date_run(benchmark, bench_dataset, bench_index):
    benchmark.pedantic(
        lambda: DATE().run(bench_dataset, index=bench_index),
        rounds=3,
        iterations=1,
    )


def test_full_date_run_reference_backend(benchmark, bench_dataset, bench_index):
    benchmark.pedantic(
        lambda: run_reference(DATE(), bench_dataset, index=bench_index),
        rounds=3,
        iterations=1,
    )


def test_vectorized_step1_dependence(benchmark, bench_index, bench_arrays):
    truth_codes = bench_arrays.majority_codes()
    claim_acc = np.full(bench_arrays.n_claims, 0.5)
    collision = UniformFalseValues().collision_array(bench_index)
    benchmark(
        lambda: pairwise_dependence_arrays(
            bench_arrays,
            truth_codes,
            claim_acc,
            copy_prob_r=0.4,
            prior_alpha=0.2,
            collision=collision,
        )
    )


def test_vectorized_step2_independence(
    benchmark, bench_arrays, bench_dependence_arrays
):
    benchmark(
        lambda: independence_flat(
            bench_arrays, bench_dependence_arrays, copy_prob_r=0.4
        )
    )


def test_vectorized_step3_posteriors_and_accuracy(benchmark, bench_index, bench_arrays):
    claim_acc = np.full(bench_arrays.n_claims, 0.5)
    model = UniformFalseValues()

    def step():
        posteriors = plain_posterior_groups(
            bench_index, claim_acc, false_values=model
        )
        return accuracy_flat(bench_arrays, posteriors)

    benchmark(step)


def test_date_backend_speedup(bench_dataset):
    """The acceptance gate: the DATE engine >= 5x the scalar oracle.

    Times the full iteration (index construction excluded — engine and
    oracle share one) on the qatar-living-like benchmark dataset,
    best-of-3 to shrug off scheduler noise.  The oracle is the scalar
    transcription in tests/oracles/.
    """

    def best_of(run, rounds=3):
        index = DatasetIndex(bench_dataset)
        run(DATE(), bench_dataset, index=index)  # warm-up
        timings = []
        for _ in range(rounds):
            start = time.perf_counter()
            run(DATE(), bench_dataset, index=index)
            timings.append(time.perf_counter() - start)
        return min(timings)

    t_vec = best_of(lambda algorithm, *args, **kwargs: algorithm.run(*args, **kwargs))
    t_ref = best_of(run_reference)
    speedup = t_ref / t_vec
    print(f"\nDATE iteration: oracle {t_ref * 1e3:.1f} ms, "
          f"engine {t_vec * 1e3:.1f} ms, speedup {speedup:.1f}x")
    assert speedup >= 5.0, (
        f"DATE engine only {speedup:.1f}x faster than the scalar oracle"
    )


def test_auction_winner_selection(benchmark, bench_instance):
    benchmark(lambda: greedy_cover(bench_instance))


def test_auction_with_payments(benchmark, bench_instance):
    benchmark.pedantic(
        lambda: ReverseAuction().run(bench_instance), rounds=3, iterations=1
    )
