"""An ingest does work for its batch and its dirty tasks, not the campaign.

:meth:`OnlineDATE.ingest <repro.streaming.online.OnlineDATE.ingest>`
extends the index, carries the per-claim accuracies across and re-runs
DATE on a restricted view of the dirty tasks, warm-started from the
reputations of that view's workers.  The suite pins the shortcuts each
of those steps takes against the campaign-wide computation they stand
for, bit for bit, and that a one-claim ingest into a 300-task campaign
averages no campaign, refills no campaign-sized array and builds no
worker profile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import WorkerProfile
from repro.core import accuracy, date
from repro.core.accuracy import claim_mean_by_worker
from repro.datasets import generate_qatar_living_like
from repro.streaming import ClaimBatch, OnlineDATE, replay_batches
from repro.streaming import online as online_mod


@pytest.fixture(scope="module")
def campaign():
    return generate_qatar_living_like(
        seed=4, n_tasks=300, n_workers=120, n_copiers=30, target_claims=6000
    )


@pytest.fixture(scope="module")
def grown(campaign):
    """The campaign grown by 40 batches, its claims out of worker order,
    with per-claim accuracies that differ in their last bits."""
    online = OnlineDATE()
    for batch in replay_batches(campaign, 40):
        online.ingest(batch)
    rng = np.random.default_rng(5)
    return online.index, rng.random(online.index.arrays.n_claims) / 3.0


def test_sub_run_warm_start_means_are_the_campaign_means(grown):
    index, values = grown
    campaign_means = claim_mean_by_worker(index.arrays, values)
    rng = np.random.default_rng(1)
    for size in (1, 7, index.n_workers):
        workers = np.sort(rng.choice(index.n_workers, size=size, replace=False))
        got = online_mod._worker_means(index.arrays, values, workers)
        assert got.tobytes() == campaign_means[workers].tobytes()


def test_carried_accuracies_are_the_claim_map_scatter(grown, campaign):
    index, values = grown
    task, worker = campaign.tasks[150], "late-worker"
    claims = {(worker, t.task_id): t.domain[0] for t in (task, campaign.tasks[3])}
    ext = index.extended(workers=(WorkerProfile(worker_id=worker),), claims=claims)
    want = np.full(ext.index.arrays.n_claims, 0.5)
    want[ext.claim_map] = values
    assert ext.carried(values, 0.5).tobytes() == want.tobytes()


def test_view_profiles_are_built_on_first_read(grown, monkeypatch):
    index, _ = grown
    built = []
    within = WorkerProfile.within
    monkeypatch.setattr(WorkerProfile, "within", lambda *a: built.append(a) or within(*a))
    view, _ = index.restricted(np.array([0, 5, 17], dtype=np.int64))
    assert built == []
    kept = set(view.worker_ids)
    want = tuple(within(index.workers[index.worker_pos[w]], kept) for w in view.worker_ids)
    assert view.workers == want
    assert len(built) == view.n_workers


def test_late_ingest_leaves_the_campaign_alone(campaign, monkeypatch):
    # One claim into a 300-task campaign: the warm start averages only
    # the sub-run's workers, the accuracies are carried, not refilled,
    # and no worker profile is rebuilt for the view.
    online = OnlineDATE.from_dataset(campaign)
    task = campaign.tasks[150]
    worker = next(
        w.worker_id for w in campaign.workers
        if (w.worker_id, task.task_id) not in campaign.claims
    )
    n_claims = campaign.n_claims
    averaged, filled, profiles = [], [], []
    mean = accuracy.claim_mean_by_worker

    def spy_mean(arrays, values):
        averaged.append(len(values))
        return mean(arrays, values)

    for module in (accuracy, date, online_mod):
        monkeypatch.setattr(module, "claim_mean_by_worker", spy_mean, raising=False)
    full = np.full
    monkeypatch.setattr(
        np, "full", lambda shape, *a, **k: filled.append(shape) or full(shape, *a, **k)
    )
    within = WorkerProfile.within
    monkeypatch.setattr(WorkerProfile, "within", lambda *a: profiles.append(a) or within(*a))
    update = online.ingest(ClaimBatch(claims={(worker, task.task_id): task.domain[0]}))
    monkeypatch.undo()
    assert update.dirty_tasks == 1 and update.iterations > 0
    view_claims = n_claims // 10
    assert averaged and max(averaged) < view_claims  # the sub-run's own result only
    assert all(np.size(shape) == 1 and int(np.prod(shape)) < view_claims for shape in filled)
    assert profiles == []
    assert online.index.arrays.n_claims == n_claims + 1
