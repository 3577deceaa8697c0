"""An ingest does work for its batch and its dirty tasks, not the campaign.

:meth:`OnlineDATE.ingest <repro.streaming.online.OnlineDATE.ingest>`
extends the index, carries the per-claim accuracies across and re-scores
the claimed dirty tasks in one weighted vote.  The suite pins the carry
against the campaign-wide scatter it stands for, bit for bit, and that
a one-claim ingest into a 300-task campaign runs no iteration, counts
and refills no campaign-sized array and builds no worker profile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import WorkerProfile
from repro.datasets import generate_qatar_living_like
from repro.streaming import ClaimBatch, OnlineDATE, replay_batches


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


def test_carried_accuracies_are_the_claim_map_scatter(grown, campaign):
    index, values = grown
    task, worker = campaign.tasks[150], "late-worker"
    claims = {(worker, t.task_id): t.domain[0] for t in (task, campaign.tasks[3])}
    ext = index.extended(workers=(WorkerProfile(worker_id=worker),), claims=claims)
    want = np.full(ext.index.arrays.n_claims, 0.5)
    want[ext.claim_map] = values
    assert ext.carried(values, 0.5).tobytes() == want.tobytes()


def test_late_ingest_leaves_the_campaign_alone(campaign, monkeypatch):
    # One claim into a 300-task campaign: the vote runs no iteration,
    # counts and fills arrays over the dirty task's claims only (the
    # accuracies are carried, not refilled), and builds no worker
    # profile.
    online = OnlineDATE.from_dataset(campaign)
    task = campaign.tasks[150]
    worker = next(
        w.worker_id for w in campaign.workers
        if (w.worker_id, task.task_id) not in campaign.claims
    )
    n_claims = campaign.n_claims
    counted, filled, profiles = [], [], []
    bincount, full = np.bincount, np.full
    monkeypatch.setattr(
        np, "bincount", lambda x, *a, **k: counted.append(len(x)) or bincount(x, *a, **k)
    )
    monkeypatch.setattr(
        np, "full", lambda shape, *a, **k: filled.append(shape) or full(shape, *a, **k)
    )
    within = WorkerProfile.within
    monkeypatch.setattr(WorkerProfile, "within", lambda *a: profiles.append(a) or within(*a))
    update = online.ingest(ClaimBatch(claims={(worker, task.task_id): task.domain[0]}))
    monkeypatch.undo()
    assert update.dirty_tasks == 1 and update.iterations == 0
    task_claims = len(campaign.claims_by_task[task.task_id]) + 1
    assert counted and max(counted) <= task_claims
    assert all(np.size(shape) == 1 and int(np.prod(shape)) <= task_claims for shape in filled)
    assert profiles == []
    assert online.index.arrays.n_claims == n_claims + 1
