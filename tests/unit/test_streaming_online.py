"""Unit tests for the online estimator (repro.streaming.online)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DATE, Dataset, DateConfig, Task, WorkerProfile
from repro.core.indexing import ClaimArrays, DatasetIndex
from repro.datasets import generate_qatar_living_like
from repro.errors import ConfigurationError, DataFormatError
from repro.streaming import ClaimBatch, OnlineDATE, replay_batches

from tests.oracles import run_reference


class TestLifecycle:
    def test_starts_empty(self):
        online = OnlineDATE()
        assert online.dataset.n_tasks == 0
        assert online.truths == {}
        assert online.worker_accuracy == {}
        assert online.n_batches == 0

    def test_empty_batch_is_noop(self):
        online = OnlineDATE()
        update = online.ingest(ClaimBatch())
        assert update.new_claims == 0
        assert update.dirty_tasks == 0
        assert not update.refreshed
        assert online.n_batches == 0

    def test_invalid_refresh_every(self):
        with pytest.raises(ConfigurationError):
            OnlineDATE(refresh_every=-1)

    def test_duplicate_claim_across_batches_rejected(self):
        online = OnlineDATE()
        online.ingest(
            ClaimBatch(
                claims={("w", "t"): "A"},
                tasks=(Task(task_id="t"),),
                workers=(WorkerProfile(worker_id="w"),),
            )
        )
        with pytest.raises(DataFormatError, match="duplicate claim"):
            online.ingest(ClaimBatch(claims={("w", "t"): "B"}))

    def test_tasks_without_claims_have_no_truths(self):
        online = OnlineDATE()
        online.ingest(ClaimBatch(tasks=(Task(task_id="t"),)))
        assert online.truths == {}
        assert online.dataset.n_tasks == 1

    def test_from_dataset_single_shot(self, qlf_small):
        online = OnlineDATE.from_dataset(qlf_small)
        assert online.n_batches == 1
        assert online.dataset.n_claims == qlf_small.n_claims
        assert set(online.truths)  # estimated something


class TestEstimates:
    def test_refresh_matches_cold_run_exactly(self, qlf_small):
        online = OnlineDATE()
        for batch in replay_batches(qlf_small, 4):
            online.ingest(batch)
        final = online.refresh()
        cold = DATE().run(qlf_small)
        assert final.truths == cold.truths
        assert final.iterations == cold.iterations
        np.testing.assert_allclose(
            final.accuracy_matrix, cold.accuracy_matrix, atol=1e-9, rtol=0
        )

    def test_snapshot_carries_current_state(self, qlf_small):
        online = OnlineDATE()
        for batch in replay_batches(qlf_small, 4):
            online.ingest(batch)
        snapshot = online.snapshot()
        assert snapshot.method == "OnlineDATE"
        assert snapshot.truths == online.truths
        assert snapshot.worker_accuracy == online.worker_accuracy
        assert 0.0 <= snapshot.precision() <= 1.0

    def test_periodic_refresh_fires(self, qlf_small):
        online = OnlineDATE(refresh_every=2)
        updates = [online.ingest(b) for b in replay_batches(qlf_small, 4)]
        assert [u.refreshed for u in updates] == [False, True, False, True]
        # After a refresh on the final batch the state equals a cold run.
        cold = DATE().run(online.dataset)
        assert online.truths == cold.truths

    def test_ingest_after_refresh_drops_pair_tables(self, qlf_small):
        # The refresh builds its pair tables on a private copy of the
        # index, so neither the live index nor the next extension keeps
        # them (carrying them re-sorted O(campaign) rows per ingest).
        online = OnlineDATE()
        batches = replay_batches(qlf_small, 4)
        for batch in batches[:2]:
            online.ingest(batch)
        online.refresh()
        assert "_pair_tables" not in online.index.arrays.__dict__
        online.ingest(batches[2])
        assert "_pair_tables" not in online.index.arrays.__dict__

    def test_dirty_scope_estimates_cover_ingested_tasks(self, qlf_small):
        online = OnlineDATE()
        batches = replay_batches(qlf_small, 4)
        online.ingest(batches[0])
        claimed = {task_id for (_, task_id) in batches[0].claims}
        assert set(online.truths) == claimed

    def test_new_workers_start_at_epsilon(self):
        config = DateConfig(initial_accuracy=0.5)
        online = OnlineDATE(config)
        online.ingest(
            ClaimBatch(
                claims={("w0", "t0"): "A"},
                tasks=(Task(task_id="t0"),),
                workers=(WorkerProfile(worker_id="w0"),),
            )
        )
        # Register a worker with no claims: reputation reported as 0
        # (no answered tasks), matching the batch result convention.
        online.ingest(ClaimBatch(workers=(WorkerProfile(worker_id="w1"),)))
        assert online.worker_accuracy["w1"] == 0.0

    def test_reference_backend_supported(self, qlf_small):
        config = DateConfig()
        online = OnlineDATE(config)
        for batch in replay_batches(qlf_small, 3):
            online.ingest(batch)
        final = online.refresh()
        cold = run_reference(DATE(config), qlf_small)
        assert final.truths == cold.truths


@pytest.fixture(scope="module")
def paper_replay():
    """A paper-scale campaign (300 tasks, 120 workers, ~6k claims)."""
    dataset = generate_qatar_living_like(
        seed=np.random.default_rng([1, 0]),
        n_tasks=300,
        n_workers=120,
        n_copiers=30,
        target_claims=6000,
    )
    return replay_batches(dataset, 120)


class TestOneEncoding:
    def test_served_reputations_equal_the_refresh(self, paper_replay):
        online = OnlineDATE()
        for batch in paper_replay[:20]:
            online.ingest(batch)
        final = online.refresh()
        assert online.worker_accuracy == final.worker_accuracy

    def test_ingest_builds_no_index_or_dataset(self, paper_replay, monkeypatch):
        calls = {"DatasetIndex": 0, "ClaimArrays": 0, "Dataset": 0}

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            return wrapper

        online = OnlineDATE()
        monkeypatch.setattr(
            DatasetIndex, "__init__", counted("DatasetIndex", DatasetIndex.__init__)
        )
        monkeypatch.setattr(
            ClaimArrays,
            "__post_init__",
            counted("ClaimArrays", ClaimArrays.__post_init__),
        )
        monkeypatch.setattr(Dataset, "__init__", counted("Dataset", Dataset.__init__))
        updates = [online.ingest(batch) for batch in paper_replay[:10]]
        assert not any(update.refreshed for update in updates)
        assert all(update.iterations == 0 for update in updates)
        assert calls == {"DatasetIndex": 0, "ClaimArrays": 0, "Dataset": 0}


class TestDatasetAfterReplay:
    @pytest.fixture
    def shuffled_replay(self, qlf_small):
        """``qlf_small`` in 4 batches, each listing its claims shuffled;
        every worker registers with the first batch, in dataset order."""
        rng = np.random.default_rng(7)
        batches = []
        for k, batch in enumerate(replay_batches(qlf_small, 4)):
            items = list(batch.claims.items())
            order = rng.permutation(len(items))
            batches.append(
                ClaimBatch(
                    claims=dict(items[i] for i in order),
                    tasks=batch.tasks,
                    workers=qlf_small.workers if k == 0 else (),
                )
            )
        return batches

    def test_dataset_equals_source_in_arrival_order(self, qlf_small, shuffled_replay):
        online = OnlineDATE()
        for batch in shuffled_replay:
            online.ingest(batch)
        dataset = online.dataset
        assert dataset == qlf_small
        assert dataset.tasks == qlf_small.tasks
        assert dataset.workers == qlf_small.workers
        arrived = [item for batch in shuffled_replay for item in batch.claims.items()]
        assert list(dataset.claims.items()) == arrived
        assert list(dataset.claims.items()) != list(qlf_small.claims.items())

class TestLeanRun:
    def test_lean_matches_full_estimates(self, qlf_small):
        full = DATE().run(qlf_small)
        lean = DATE().run(qlf_small, lean=True)
        assert lean.truths == full.truths
        assert lean.iterations == full.iterations
        np.testing.assert_allclose(
            lean.accuracy_matrix, full.accuracy_matrix, atol=0
        )
        assert lean.confidence == full.confidence
        assert lean.worker_accuracy == full.worker_accuracy

    def test_lean_skips_tables(self, qlf_small):
        lean = DATE().run(qlf_small, lean=True)
        assert lean.support == {}
        assert lean.dependence == {}
