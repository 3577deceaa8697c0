"""IMC2's stage hand-off: the claim-array gather against the bid loop.

:meth:`SOACInstance.from_truth_discovery` gathers the truth-discovery
result's accuracy matrix at the index's claims in one numpy step, and a
bid is a price.  :func:`tests.oracles.reference_soac_instance` is the
hand-off it replaced: one sealed bid per answering worker and a loop
over every (bid, task) pair through the result's id maps.  Every field
of the two instances must agree byte for byte over:

- DATE and majority-vote results (MV's accuracies include exact zeros);
- campaigns with workers that answered nothing, anywhere in the order;
- price and requirement overrides, including ids that bid nothing;
- ``index=`` given versus built from the dataset, and an index grown
  batch by batch, as a served auction prices it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DATE, Dataset, DatasetIndex, MajorityVote, SOACInstance, WorkerProfile
from repro.datasets.qatar_living import generate_qatar_living_like
from repro.streaming import OnlineDATE, replay_batches

from tests.oracles import reference_soac_instance

FIELDS = ("requirements", "accuracy", "bids", "costs", "task_values")


def assert_same_instance(got: SOACInstance, want: SOACInstance) -> None:
    assert got.worker_ids == want.worker_ids
    assert got.task_ids == want.task_ids
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def campaign(seed: int, *, n_tasks: int = 30, n_workers: int = 16, idle: int = 0) -> Dataset:
    """A Qatar-Living-like campaign with ``idle`` claimless workers
    spread through the worker order."""
    dataset = generate_qatar_living_like(
        seed=seed, n_tasks=n_tasks, n_workers=n_workers, n_copiers=n_workers // 4,
        target_claims=n_tasks * n_workers // 3,
    )
    if not idle:
        return dataset
    rng = np.random.default_rng(seed)
    workers = list(dataset.workers)
    for k in range(idle):
        at = int(rng.integers(0, len(workers) + 1))
        workers.insert(at, WorkerProfile(worker_id=f"idle{k}", cost=float(rng.uniform(0.5, 2))))
    return Dataset(tasks=dataset.tasks, workers=tuple(workers), claims=dataset.claims)


ALGORITHMS = {"DATE": DATE, "MV": MajorityVote}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_gather_matches_the_bid_loop(algorithm, seed):
    dataset = campaign(seed, idle=seed % 3)
    result = ALGORITHMS[algorithm]().run(dataset)
    want = reference_soac_instance(dataset, result)
    assert_same_instance(SOACInstance.from_truth_discovery(dataset, result), want)
    index = DatasetIndex(dataset)
    assert_same_instance(SOACInstance.from_truth_discovery(None, result, index=index), want)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_gather_matches_the_bid_loop_at_3x(algorithm):
    dataset = generate_qatar_living_like(
        seed=1, n_tasks=900, n_workers=360, n_copiers=90, target_claims=20000
    )
    result = ALGORITHMS[algorithm]().run(dataset)
    prices = {dataset.workers[0].worker_id: 0.5}
    assert_same_instance(
        SOACInstance.from_truth_discovery(dataset, result, prices=prices),
        reference_soac_instance(dataset, result, prices=prices),
    )


def test_majority_vote_zeros_are_copied():
    dataset = campaign(5)
    result = MajorityVote().run(dataset)
    instance = SOACInstance.from_truth_discovery(dataset, result)
    # A worker that never agrees with the vote has accuracy exactly 0 on
    # its tasks; those cells read 0 either way, and the rest agree.
    assert (instance.accuracy == 0.0).any()
    assert_same_instance(instance, reference_soac_instance(dataset, result))


@settings(max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    idle=st.integers(0, 3),
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    price_share=st.floats(0.0, 1.0),
    requirement_share=st.floats(0.0, 1.0),
    with_index=st.booleans(),
)
def test_overrides_match_the_bid_loop(
    seed, idle, algorithm, price_share, requirement_share, with_index
):
    dataset = campaign(seed, n_tasks=12, n_workers=8, idle=idle)
    index = DatasetIndex(dataset)
    result = ALGORITHMS[algorithm]().run(dataset, index=index)
    rng = np.random.default_rng(seed)
    worker_ids = [w.worker_id for w in dataset.workers]
    prices = {
        w: float(rng.uniform(0.0, 5.0))
        for w in worker_ids + ["nobody"]
        if rng.random() < price_share
    }
    requirements = {
        t.task_id: float(rng.uniform(0.0, 3.0))
        for t in dataset.tasks
        if rng.random() < requirement_share
    }
    want = reference_soac_instance(dataset, result, prices=prices, requirements=requirements)
    got = SOACInstance.from_truth_discovery(
        None if with_index else dataset,
        result,
        index=index if with_index else None,
        prices=prices,
        requirements=requirements,
    )
    assert_same_instance(got, want)


@pytest.mark.parametrize("seed", [1, 2])
def test_a_grown_index_matches_its_campaign(seed):
    online = OnlineDATE()
    for batch in replay_batches(campaign(seed, n_tasks=40, n_workers=20), 4):
        online.ingest(batch)
    result = online.refresh()
    index = online.index
    got = SOACInstance.from_truth_discovery(None, result, index=index)
    assert_same_instance(got, reference_soac_instance(index.dataset, result))
