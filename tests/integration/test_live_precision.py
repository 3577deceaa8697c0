"""Live answers under periodic refreshes beat majority vote.

Between refreshes, :class:`~repro.streaming.OnlineDATE` scores each
batch's tasks by the last refresh's model (accuracies discounted for
copying).  On paper-scale campaigns (300 tasks, 120 workers of whom 30
copy, ~6000 claims) replayed in 120 batches with a refresh every 25,
the answers served at the end must clear majority vote by 0.05 on every
seed, averaged over four campaigns per seed.  The margin measured
+0.085 to +0.10.
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest

from repro.baselines import MajorityVote
from repro.datasets import generate_qatar_living_like
from repro.streaming import OnlineDATE, replay_batches

PAPER = dict(n_tasks=300, n_workers=120, n_copiers=30, target_claims=6000)
INPUTS = 4
BATCHES = 120
REFRESH_EVERY = 25


def _precision(truths: dict[str, str], reference: dict[str, str]) -> float:
    hits = sum(truths.get(task_id) == value for task_id, value in reference.items())
    return hits / len(reference)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_final_live_precision_clears_majority_vote(seed):
    live, majority = [], []
    for k in range(INPUTS):
        dataset = generate_qatar_living_like(seed=np.random.default_rng([seed, k]), **PAPER)
        online = OnlineDATE(refresh_every=REFRESH_EVERY)
        updates = [online.ingest(batch) for batch in replay_batches(dataset, BATCHES)]
        assert sum(update.refreshed for update in updates) == BATCHES // REFRESH_EVERY
        assert all(update.iterations == 0 for update in updates if not update.refreshed)
        live.append(_precision(online.truths, dataset.truths))
        majority.append(MajorityVote().run(dataset).precision())
    assert statistics.fmean(live) >= statistics.fmean(majority) + 0.05
