"""Integration tests for streaming truth discovery.

The paper builds on Dong et al.'s "dynamic world" line of work: claims
arrive over time and the platform re-estimates after each batch.
``repro.streaming`` runs that as a long-lived online loop: incremental
ingestion, a vote under the last refresh's model for each batch's
tasks, and a periodic full refresh.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DATE
from repro.datasets import generate_qatar_living_like
from repro.streaming import OnlineDATE, replay_batches


class TestOnlineStreaming:
    """End-to-end: batched ingestion through the online subsystem."""

    @pytest.fixture(scope="class")
    def campaign(self):
        return generate_qatar_living_like(
            seed=47, n_tasks=80, n_workers=40, n_copiers=10, target_claims=1400
        )

    def test_final_refresh_equals_cold_run(self, campaign):
        online = OnlineDATE()
        for batch in replay_batches(campaign, 8):
            online.ingest(batch)
        final = online.refresh()
        cold = DATE().run(campaign)
        assert final.truths == cold.truths
        assert final.iterations == cold.iterations
        np.testing.assert_allclose(
            final.accuracy_matrix, cold.accuracy_matrix, atol=1e-9, rtol=0
        )
        assert final.precision() == cold.precision()

    def test_intermediate_estimates_track_ingested_tasks(self, campaign):
        online = OnlineDATE()
        seen: set[str] = set()
        for batch in replay_batches(campaign, 8):
            online.ingest(batch)
            seen |= {task_id for (_, task_id) in batch.claims}
            assert set(online.truths) == seen
            # Every estimate is an observed value of its task.
            for task_id, value in online.truths.items():
                assert value in set(
                    online.dataset.claims_by_task[task_id].values()
                )

    def test_intermediate_quality_close_to_cold(self, campaign):
        """The vote trails a cold run before any refresh (before the
        first one it is majority vote — the documented trade-off the
        refresh repairs), but it must stay in the same quality regime,
        and a periodic refresh must close the gap entirely."""
        online = OnlineDATE()
        for batch in replay_batches(campaign, 8):
            online.ingest(batch)
        cold = DATE().run(campaign)
        assert online.snapshot().precision() >= cold.precision() - 0.2
        refreshed = OnlineDATE(refresh_every=4)
        for batch in replay_batches(campaign, 8):
            refreshed.ingest(batch)
        assert refreshed.snapshot().precision() == cold.precision()

    def test_periodic_refresh_keeps_exactness_cadence(self, campaign):
        online = OnlineDATE(refresh_every=4)
        updates = [online.ingest(b) for b in replay_batches(campaign, 8)]
        assert sum(u.refreshed for u in updates) == 2
        assert updates[3].refreshed and updates[7].refreshed
        cold = DATE().run(campaign)
        assert online.truths == cold.truths
