"""Unit tests for claim batches and replay (repro.streaming.ingest)."""

from __future__ import annotations

import json

import pytest

from repro import DateConfig, Task, WorkerProfile, ZipfFalseValues
from repro.datasets import generate_qatar_living_like
from repro.errors import DataFormatError
from repro.streaming import (
    CampaignStore,
    ClaimBatch,
    StreamingApp,
    batch_from_json,
    batch_to_json,
    replay_batches,
)
from repro.streaming.online import OnlineDATE
from repro.streaming.ingest import coerce_number, task_from_spec, worker_from_spec


class TestClaimBatch:
    def test_defaults_are_empty(self):
        batch = ClaimBatch()
        assert batch.is_empty
        assert batch.n_claims == 0

    def test_counts(self):
        batch = ClaimBatch(
            claims={("w", "t"): "v"},
            tasks=(Task(task_id="t"),),
            workers=(WorkerProfile(worker_id="w"),),
        )
        assert not batch.is_empty
        assert batch.n_claims == 1

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate task ids"):
            ClaimBatch(tasks=(Task(task_id="t"), Task(task_id="t")))

    def test_duplicate_worker_ids_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate worker ids"):
            ClaimBatch(
                workers=(
                    WorkerProfile(worker_id="w"),
                    WorkerProfile(worker_id="w"),
                )
            )

    def test_malformed_claim_keys_rejected(self):
        with pytest.raises(DataFormatError, match="pair"):
            ClaimBatch(claims={"not-a-pair": "v"})
        with pytest.raises(DataFormatError, match="pair"):
            ClaimBatch(claims={("w", ""): "v"})

    def test_empty_value_rejected(self):
        with pytest.raises(DataFormatError, match="non-empty string"):
            ClaimBatch(claims={("w", "t"): ""})


class TestReplayBatches:
    def test_batch_count_clamped_to_tasks(self, tiny_dataset):
        batches = replay_batches(tiny_dataset, 100)
        assert len(batches) == tiny_dataset.n_tasks

    def test_invalid_batch_count(self, tiny_dataset):
        with pytest.raises(ValueError):
            replay_batches(tiny_dataset, 0)

    def test_covers_all_claims_once(self, qlf_small):
        batches = replay_batches(qlf_small, 7)
        merged = {}
        for batch in batches:
            assert not set(batch.claims) & set(merged)
            merged.update(batch.claims)
        assert merged == dict(qlf_small.claims)

    def test_tasks_published_in_dataset_order(self, qlf_small):
        batches = replay_batches(qlf_small, 7)
        published = [t.task_id for batch in batches for t in batch.tasks]
        assert published == [t.task_id for t in qlf_small.tasks]

    def test_workers_register_exactly_once(self, qlf_small):
        batches = replay_batches(qlf_small, 7)
        registered = [w.worker_id for batch in batches for w in batch.workers]
        assert len(registered) == len(set(registered))
        assert set(registered) == {w.worker_id for w in qlf_small.workers}

    def test_copier_never_precedes_its_sources(self, qlf_small):
        batches = replay_batches(qlf_small, 7)
        seen: set[str] = set()
        for batch in batches:
            batch_ids = {w.worker_id for w in batch.workers}
            for worker in batch.workers:
                for source in worker.sources:
                    assert source in seen or source in batch_ids
            seen |= batch_ids

    def test_claims_ride_with_their_task_batch(self, tiny_dataset):
        batches = replay_batches(tiny_dataset, 2)
        for batch in batches:
            task_ids = {t.task_id for t in batch.tasks}
            assert {task_id for (_, task_id) in batch.claims} <= task_ids


class TestJsonRoundTrip:
    def test_round_trip(self, tiny_dataset):
        batch = ClaimBatch(
            claims=tiny_dataset.claims,
            tasks=tiny_dataset.tasks,
            workers=tiny_dataset.workers,
        )
        payload = batch_to_json(batch, include_truth=True)
        decoded = batch_from_json(payload)
        assert decoded.claims == batch.claims
        assert decoded.tasks == batch.tasks
        assert decoded.workers == batch.workers

    def test_truth_hidden_by_default(self, tiny_dataset):
        batch = ClaimBatch(tasks=tiny_dataset.tasks)
        payload = batch_to_json(batch)
        assert all("truth" not in spec for spec in payload["tasks"])
        decoded = batch_from_json(payload)
        assert all(t.truth is None for t in decoded.tasks)

    def test_malformed_payloads_rejected(self):
        with pytest.raises(DataFormatError):
            batch_from_json(["not", "an", "object"])
        with pytest.raises(DataFormatError, match="worker/task/value"):
            batch_from_json({"claims": [{"worker": "w"}]})
        with pytest.raises(DataFormatError, match="task_id"):
            batch_from_json({"tasks": [{"domain": ["A"]}]})
        with pytest.raises(DataFormatError, match="worker_id"):
            batch_from_json({"workers": [{}]})

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"claims": 5}, "'claims' must be an array"),
            ({"claims": {"worker": "w", "task": "t", "value": "A"}}, "'claims' must be an array"),
            ({"tasks": "t1"}, "'tasks' must be an array"),
            ({"workers": {"worker_id": "w"}}, "'workers' must be an array"),
            ({"tasks": [{"task_id": "t", "domain": "AB"}]}, "'domain' must be an array"),
            ({"workers": [{"worker_id": "w", "sources": "w12"}]}, "'sources' must be an array"),
        ],
    )
    def test_non_array_fields_rejected(self, payload, match):
        with pytest.raises(DataFormatError, match=match):
            batch_from_json(payload)

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"claims": [{"worker": "w", "task": "t", "value": None}]}, "claim value"),
            ({"claims": [{"worker": "w", "task": "t", "value": 1}]}, "claim value"),
            ({"claims": [{"worker": 7, "task": "t", "value": "A"}]}, "claim worker"),
            ({"claims": [{"worker": "w", "task": None, "value": "A"}]}, "claim task"),
            ({"tasks": [{"task_id": None}]}, "task_id"),
            ({"tasks": [{"task_id": 3}]}, "task_id"),
            ({"tasks": [{"task_id": "t", "domain": ["A", 2]}]}, "domain value"),
            ({"tasks": [{"task_id": "t", "truth": 1}]}, "truth"),
            ({"workers": [{"worker_id": None}]}, "worker_id"),
            ({"workers": [{"worker_id": "w", "sources": [12]}]}, "source"),
        ],
    )
    def test_non_string_ids_and_values_rejected(self, payload, match):
        with pytest.raises(DataFormatError, match=f"{match} must be a string"):
            batch_from_json(payload)

    def test_spec_decoders_reject_non_strings(self):
        with pytest.raises(DataFormatError, match="task_id must be a string"):
            task_from_spec({"task_id": None})
        with pytest.raises(DataFormatError, match="'sources' must be an array"):
            worker_from_spec({"worker_id": "w", "sources": "w12"})

    @pytest.mark.parametrize(
        "value", ["nan", "inf", "-Infinity", float("nan"), float("inf")]
    )
    def test_non_finite_numbers_rejected(self, value):
        with pytest.raises(DataFormatError, match="finite"):
            coerce_number({"cost": value}, "cost", 1.0)
        with pytest.raises(DataFormatError, match="finite"):
            batch_from_json({"workers": [{"worker_id": "w", "cost": value}]})

    def test_json_nan_literal_rejected(self):
        # json.loads accepts the NaN / Infinity literals by default.
        payload = json.loads('{"tasks": [{"task_id": "t", "requirement": NaN}]}')
        with pytest.raises(DataFormatError, match="finite"):
            batch_from_json(payload)

    def test_duplicate_claim_rows_rejected(self):
        rows = [
            {"worker": "w", "task": "t", "value": "a"},
            {"worker": "w", "task": "t", "value": "b"},
        ]
        with pytest.raises(DataFormatError, match="duplicate claim"):
            batch_from_json({"claims": rows})


class TestWireArrivalOrder:
    """A batch sent over HTTP reaches the estimator in the order it
    arrives in-process: the claim sequence feeds the index extension,
    and under a config without the discounted posterior and with Zipf
    false values, a different order changes confidences and worker
    accuracies in the last bits."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_http_ingest_matches_in_process(self, seed):
        config = DateConfig(
            discounted_posterior=False, false_values=ZipfFalseValues()
        )
        dataset = generate_qatar_living_like(
            seed=seed, n_tasks=120, n_workers=40, n_copiers=8,
            target_claims=1500,
        )
        batches = replay_batches(dataset, 6)
        app = StreamingApp(CampaignStore())
        app.store.create("c", config=config)
        for batch in batches:
            status, _ = app.handle(
                "POST", "/campaigns/c/claims",
                batch_to_json(batch, include_truth=True),
            )
            assert status == 200
        wire = app.store.get("c").online
        local = OnlineDATE(config)
        for batch in batches:
            local.ingest(batch)

        assert list(wire.dataset.claims) == list(local.dataset.claims)
        wire.refresh()
        local.refresh()
        assert wire.truths == local.truths
        assert wire.confidence == local.confidence
        assert wire.worker_accuracy == local.worker_accuracy
