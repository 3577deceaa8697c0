"""Property tests: between refreshes, live answers are one weighted vote.

`OnlineDATE.ingest` re-scores each batch's claimed tasks with the last
refresh's model: claimant ``i`` weighs ``A_i · (1 − max_i' P(i → i'))``
(accuracy at the refresh, discounted by the likeliest copy edge), a
worker the refresh did not see weighs ε, and each task's truth is the
value with the largest summed weight (ties to the smallest value), its
confidence that value's share of the task's total weight.  Pinned here:

- **Majority vote before any refresh.** With the default config and
  ``refresh_every=0``, the served truths and confidence equal
  ``MajorityVote().run`` on the campaign so far after every ingest, bit
  for bit, on random worlds and on a paper-scale replay.
- **The weighted vote after refreshes.** Workers joining mid-campaign
  and refreshes at random batches: every task an ingest re-scores gets
  exactly what a scalar vote over the refresh result's
  ``worker_accuracy`` and ``dependence`` gives, for every zoo member
  with pair posteriors and one without.
- **Recovery rebuilds the weights.** A journaled campaign recovered
  from its journal publishes the same weights and answers byte for byte;
  one that never refreshed recovers no weights and serves majority vote.
- **The weights and the argmax.** A refresh's weights are its
  accuracies discounted by each worker's likeliest copy edge; ties go
  to the smallest value; an ε other than 1/2 keeps majority vote's
  winners; estimators run only on refreshes.

``derandomize=True`` keeps the corpus stable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DateConfig, Task, WorkerProfile
from repro.baselines import MajorityVote
from repro.datasets import generate_qatar_living_like
from repro.streaming import CampaignStore, ClaimBatch, OnlineDATE, replay_batches

from tests.property.test_property_streaming import streamed_campaigns

VALUES = ("A", "B", "C", "D")
PAPER = dict(n_tasks=300, n_workers=120, n_copiers=30, target_claims=6000)


def _hexed(mapping):
    return {key: value.hex() for key, value in mapping.items()}


def assert_serves_majority_vote(online: OnlineDATE) -> None:
    want = MajorityVote().run(online.dataset)
    assert online.truths == want.truths
    assert _hexed(online.confidence) == _hexed(want.confidence)


@st.composite
def joining_campaigns(draw, max_workers=7, max_tasks=6, max_batches=6):
    """Claim batches in which workers join mid-campaign (copiers naming
    earlier workers), claims on a task arrive across batches, and
    refreshes fire after random batches."""
    n = draw(st.integers(min_value=2, max_value=max_workers))
    m = draw(st.integers(min_value=1, max_value=max_tasks))
    n_batches = draw(st.integers(min_value=2, max_value=max_batches))
    joined = sorted(draw(st.integers(0, n_batches - 1)) for _ in range(n))
    workers = []
    for i in range(n):
        sources = tuple(f"w{s}" for s in range(i) if draw(st.booleans()))
        workers.append(
            WorkerProfile(
                worker_id=f"w{i}",
                is_copier=bool(sources),
                sources=sources,
                copy_prob=0.5 if sources else 0.0,
            )
        )
    tasks = tuple(Task(task_id=f"t{j}", domain=VALUES, truth="A") for j in range(m))
    claims = {k: {} for k in range(n_batches)}
    for i in range(n):
        for j in range(m):
            if draw(st.booleans()):
                k = draw(st.integers(joined[i], n_batches - 1))
                claims[k][(f"w{i}", f"t{j}")] = draw(st.sampled_from(VALUES))
    batches = [
        ClaimBatch(
            claims=claims[k],
            tasks=tasks if k == 0 else (),
            workers=tuple(w for w, b in zip(workers, joined) if b == k),
        )
        for k in range(n_batches)
    ]
    refresh_after = draw(st.sets(st.integers(0, n_batches - 2)))
    return batches, refresh_after


def scalar_vote(online: OnlineDATE, result, answered, task_id: str) -> tuple[str, float]:
    """Line 28 with the model of the refresh ``result`` held fixed, one
    claim at a time: each group, and the task, sums its claimants'
    weights in (value, worker) order.  ``answered`` holds the workers
    with claims at the refresh."""
    eps = online.config.initial_accuracy
    copies: dict[str, float] = {}
    for (a, b), posterior in result.dependence.items():
        copies[a] = max(copies.get(a, 0.0), posterior.p_a_to_b)
        copies[b] = max(copies.get(b, 0.0), posterior.p_b_to_a)

    def weight(worker_id: str) -> float:
        if worker_id not in answered:
            return eps
        return result.worker_accuracy[worker_id] * (1.0 - copies.get(worker_id, 0.0))

    index = online.index
    claims = online.dataset.claims_by_task[task_id]
    groups: dict[str, float] = {}
    total = 0.0
    for worker_id in sorted(claims, key=lambda w: (claims[w], index.worker_pos[w])):
        value = claims[worker_id]
        groups[value] = groups.get(value, 0.0) + weight(worker_id)
        total += weight(worker_id)
    order = sorted(groups)
    best = max(order, key=lambda v: (groups[v], -order.index(v)))
    return best, groups[best] / total if total > 0 else 0.0


class TestMajorityVoteBeforeRefresh:
    @given(case=streamed_campaigns(max_workers=7, max_tasks=7, max_batches=5))
    @settings(max_examples=80, derandomize=True)
    def test_random_worlds(self, case):
        _dataset, batches = case
        online = OnlineDATE(DateConfig(), refresh_every=0)
        for batch in batches:
            online.ingest(batch)
            assert_serves_majority_vote(online)

    def test_paper_scale_replay(self):
        dataset = generate_qatar_living_like(seed=np.random.default_rng([1, 0]), **PAPER)
        online = OnlineDATE(DateConfig(), refresh_every=0)
        for batch in replay_batches(dataset, 120):
            update = online.ingest(batch)
            assert update.iterations == 0 and not update.refreshed
            assert_serves_majority_vote(online)
        assert len(online.truths) == dataset.n_tasks


class TestWeightedVoteAfterRefresh:
    @pytest.mark.filterwarnings("ignore::repro.errors.ConvergenceWarning")
    @given(case=joining_campaigns(), algorithm=st.sampled_from(("DATE", "TruthFinder")))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_rescored_tasks_match_the_scalar_vote(self, case, algorithm):
        batches, refresh_after = case
        online = OnlineDATE(algorithm=algorithm)
        result = answered = None
        for k, batch in enumerate(batches):
            update = online.ingest(batch)
            assert update.iterations == 0
            if result is None:
                assert_serves_majority_vote(online)
            else:
                for task_id in {t for _w, t in batch.claims}:
                    value, share = scalar_vote(online, result, answered, task_id)
                    assert online.truths[task_id] == value
                    assert online.confidence[task_id] == share
            if k in refresh_after:
                result = online.refresh()
                answered = {w for w, _t in online.dataset.claims}
                assert online.state.weights.shape == (online.index.n_workers,)


class TestRecoveryRebuildsTheWeights:
    def test_recovered_weights_and_answers_are_the_live_ones(self, tmp_path):
        dataset = generate_qatar_living_like(
            seed=8, n_tasks=40, n_workers=24, n_copiers=6, target_claims=600
        )
        store = CampaignStore(journal_dir=tmp_path, refresh_every=3)
        store.create("c")
        for seq, batch in enumerate(replay_batches(dataset, 8), start=1):
            store.ingest("c", batch, seq=seq)
        live = store.get("c").online.state
        assert len(live.weights) and live.batches == 8
        store.close()

        recovered = CampaignStore(journal_dir=tmp_path)
        state = recovered.get("c").online.state
        assert state.weights.tobytes() == live.weights.tobytes()
        assert state.truths_body == live.truths_body
        recovered.close()


def test_an_unseen_worker_weighs_epsilon():
    # w0 and w1 disagree on t0 and the refresh fits them; w2 joins after
    # it and its vote counts ε, whatever the refresh made of the others.
    tasks = tuple(Task(task_id=f"t{j}", domain=VALUES) for j in range(2))
    workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(3))
    online = OnlineDATE(algorithm="MV")
    online.ingest(
        ClaimBatch(
            tasks=tasks,
            workers=workers[:2],
            claims={("w0", "t0"): "A", ("w1", "t0"): "B", ("w0", "t1"): "A"},
        )
    )
    online.refresh()
    weights = online.state.weights
    np.testing.assert_array_equal(weights, [1.0, 0.0])
    online.ingest(ClaimBatch(workers=workers[2:], claims={("w2", "t1"): "B"}))
    # t1: w0 (weight 1) says A, w2 (unseen, ε = 0.5) says B.
    assert online.truths["t1"] == "A"
    assert online.confidence["t1"] == 1.0 / 1.5


def test_ties_go_to_the_smallest_value():
    # B arrives before A and both weigh ε: line 28's first argmax still
    # names A, with half the task's weight.
    online = OnlineDATE()
    online.ingest(
        ClaimBatch(
            tasks=(Task(task_id="t0", domain=VALUES),),
            workers=tuple(WorkerProfile(worker_id=f"w{i}") for i in range(2)),
            claims={("w1", "t0"): "B", ("w0", "t0"): "A"},
        )
    )
    assert online.truths == {"t0": "A"}
    assert online.confidence == {"t0": 0.5}


def test_refresh_weights_discount_the_likeliest_copy():
    dataset = generate_qatar_living_like(
        seed=5, n_tasks=40, n_workers=24, n_copiers=8, target_claims=700
    )
    online = OnlineDATE.from_dataset(dataset)
    result = online.refresh()
    copies = dict.fromkeys(online.index.worker_ids, 0.0)
    for (a, b), posterior in result.dependence.items():
        copies[a] = max(copies[a], posterior.p_a_to_b)
        copies[b] = max(copies[b], posterior.p_b_to_a)
    want = [
        result.worker_accuracy[w] * (1.0 - copies[w]) for w in online.index.worker_ids
    ]
    np.testing.assert_array_equal(online.state.weights, want)
    # The discount bites: some worker weighs less than its accuracy.
    assert max(copies.values()) > 0.0


def test_other_epsilon_serves_majority_vote_truths():
    # Equal weights other than 1/2 keep majority vote's winners; the
    # shares are its vote shares up to rounding.
    dataset = generate_qatar_living_like(
        seed=6, n_tasks=40, n_workers=24, n_copiers=6, target_claims=600
    )
    online = OnlineDATE(DateConfig(initial_accuracy=0.8))
    for batch in replay_batches(dataset, 6):
        online.ingest(batch)
        want = MajorityVote().run(online.dataset)
        assert online.truths == want.truths
        assert online.confidence == pytest.approx(want.confidence, rel=1e-12)


def test_iterations_run_only_on_refreshes():
    dataset = generate_qatar_living_like(
        seed=7, n_tasks=30, n_workers=20, n_copiers=4, target_claims=400
    )
    online = OnlineDATE(refresh_every=3)
    for k, batch in enumerate(replay_batches(dataset, 7), start=1):
        update = online.ingest(batch)
        assert update.refreshed == (k % 3 == 0)
        assert (update.iterations > 0) == update.refreshed
        if k < 3:
            assert len(online.state.weights) == 0
        elif update.refreshed:
            assert len(online.state.weights) == online.index.n_workers


def test_a_journal_without_refreshes_recovers_majority_vote(tmp_path):
    dataset = generate_qatar_living_like(
        seed=9, n_tasks=30, n_workers=20, n_copiers=4, target_claims=400
    )
    store = CampaignStore(journal_dir=tmp_path)
    store.create("c")
    for seq, batch in enumerate(replay_batches(dataset, 5), start=1):
        store.ingest("c", batch, seq=seq)
    live = store.get("c").online.state
    store.close()

    recovered = CampaignStore(journal_dir=tmp_path)
    online = recovered.get("c").online
    assert len(online.state.weights) == 0
    assert online.state.truths_body == live.truths_body
    assert_serves_majority_vote(online)
    recovered.close()
