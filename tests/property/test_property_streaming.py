"""Property tests: streaming ingestion is equivalent to batch rebuilds.

Random campaigns are cut into random batch sequences (claims scattered
across batches, tasks published with their first claim, workers
registered up front) and replayed through the incremental machinery.
Two invariants are pinned:

- **Index equivalence** — a `DatasetIndex` grown through
  `extended()` matches a cold `DatasetIndex(dataset)` structure for
  structure, claim arrays and pair tables included.
- **Estimate equivalence** — `OnlineDATE` over the batch stream,
  after its final full refresh, matches the cold `DATE().run` result
  and the scalar oracle's (same truths and iterations, numerics
  <= 1e-9).

``derandomize=True`` keeps the corpus stable: this is an acceptance
gate, not a fuzzing lottery.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DATE, Dataset, DateConfig, Task, WorkerProfile
from repro.core import DatasetIndex
from repro.streaming import ClaimBatch, OnlineDATE, replay_batches

from tests.conftest import assert_same_claim_arrays
from tests.oracles import claims_by_task, claims_by_worker, run_reference, value_groups

VALUES = ("A", "B", "C", "D")

TOL = 1e-9

@st.composite
def streamed_campaigns(draw, max_workers=6, max_tasks=6, max_batches=4):
    """A random campaign plus a random cut into claim batches.

    Every claim is assigned an arrival batch; a task is published with
    its earliest claim (unclaimed tasks arrive in batch 0); workers all
    register in batch 0 (sources may point anywhere then).
    """
    n = draw(st.integers(min_value=2, max_value=max_workers))
    m = draw(st.integers(min_value=1, max_value=max_tasks))
    n_batches = draw(st.integers(min_value=1, max_value=max_batches))
    tasks = tuple(Task(task_id=f"t{j}", domain=VALUES, truth="A") for j in range(m))
    workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n))
    claims: dict[tuple[str, str], str] = {}
    arrival: dict[tuple[str, str], int] = {}
    for i in range(n):
        for j in range(m):
            if draw(st.booleans()):
                key = (f"w{i}", f"t{j}")
                claims[key] = draw(st.sampled_from(VALUES))
                arrival[key] = draw(st.integers(0, n_batches - 1))
    if not claims:
        claims[("w0", "t0")] = draw(st.sampled_from(VALUES))
        arrival[("w0", "t0")] = 0
    dataset = Dataset(tasks=tasks, workers=workers, claims=claims)

    task_batch = {t.task_id: 0 for t in tasks}
    for (_, task_id), batch in arrival.items():
        task_batch[task_id] = min(task_batch.get(task_id, batch), batch)
    batches = []
    for k in range(n_batches):
        batches.append(
            ClaimBatch(
                claims={
                    key: value
                    for key, value in claims.items()
                    if arrival[key] == k
                },
                tasks=tuple(t for t in tasks if task_batch[t.task_id] == k),
                workers=workers if k == 0 else (),
            )
        )
    return dataset, batches


def grow_through_extensions(batches) -> DatasetIndex:
    index = DatasetIndex(Dataset(tasks=(), workers=(), claims={}))
    index.arrays._pair_tables  # materialize so every step takes the splice path
    for batch in batches:
        index = index.extended(
            tasks=batch.tasks, workers=batch.workers, claims=batch.claims
        ).index
    return index


def assert_index_equivalent(grown: DatasetIndex, cold: DatasetIndex) -> None:
    assert grown.task_ids == cold.task_ids
    assert grown.worker_ids == cold.worker_ids
    assert claims_by_task(grown) == claims_by_task(cold)
    assert claims_by_worker(grown) == claims_by_worker(cold)
    assert value_groups(grown) == value_groups(cold)
    np.testing.assert_array_equal(grown.num_false, cold.num_false)
    assert_same_claim_arrays(grown.arrays, cold.arrays)
    for position, (got, want) in enumerate(
        zip(grown.arrays._pair_tables, cold.arrays._pair_tables)
    ):
        np.testing.assert_array_equal(got, want, err_msg=f"pair table {position}")


class TestIncrementalIndexEquivalence:
    @given(campaign=streamed_campaigns())
    @settings(max_examples=60, derandomize=True)
    def test_grown_index_matches_cold_rebuild(self, campaign):
        dataset, batches = campaign
        grown = grow_through_extensions(batches)
        assert_index_equivalent(grown, DatasetIndex(dataset))

    @given(campaign=streamed_campaigns())
    @settings(max_examples=60, derandomize=True)
    def test_claim_map_follows_every_claim(self, campaign):
        _, batches = campaign
        index = DatasetIndex(Dataset(tasks=(), workers=(), claims={}))
        for batch in batches:
            old = index.arrays
            ext = index.extended(
                tasks=batch.tasks, workers=batch.workers, claims=batch.claims
            )
            new = ext.index.arrays
            assert len(np.unique(ext.claim_map)) == old.n_claims
            for name in ("claim_worker", "claim_task"):
                np.testing.assert_array_equal(
                    getattr(new, name)[ext.claim_map], getattr(old, name), err_msg=name
                )
            assert [new.group_values[g] for g in new.claim_group[ext.claim_map]] == [
                old.group_values[g] for g in old.claim_group
            ]
            index = ext.index

    @given(campaign=streamed_campaigns())
    @settings(max_examples=30, derandomize=True)
    def test_replay_batches_cover_exactly(self, campaign):
        dataset, _ = campaign
        batches = replay_batches(dataset, 3)
        merged: dict[tuple[str, str], str] = {}
        seen_tasks: list[str] = []
        seen_workers: set[str] = set()
        for batch in batches:
            for key in batch.claims:
                assert key not in merged
            merged.update(batch.claims)
            seen_tasks.extend(t.task_id for t in batch.tasks)
            seen_workers.update(w.worker_id for w in batch.workers)
        assert merged == dict(dataset.claims)
        assert seen_tasks == [t.task_id for t in dataset.tasks]
        assert seen_workers == {w.worker_id for w in dataset.workers}
        grown = grow_through_extensions(batches)
        # Workers register in first-claim order during a replay, so the
        # cold twin uses the same registration order.
        reordered = Dataset(
            tasks=dataset.tasks,
            workers=tuple(
                dataset.worker_by_id[worker_id] for worker_id in grown.worker_ids
            ),
            claims=dataset.claims,
        )
        assert_index_equivalent(grown, DatasetIndex(reordered))


class TestOnlineEquivalence:
    @given(campaign=streamed_campaigns())
    @settings(max_examples=30, derandomize=True)
    def test_refreshed_online_matches_cold_run(self, campaign):
        dataset, batches = campaign
        online = OnlineDATE()
        for batch in batches:
            online.ingest(batch)
        final = online.refresh()
        cold = DATE().run(dataset)
        assert final.truths == cold.truths
        assert final.iterations == cold.iterations
        np.testing.assert_allclose(
            final.accuracy_matrix, cold.accuracy_matrix, atol=TOL, rtol=0
        )
        for worker_id, accuracy in cold.worker_accuracy.items():
            assert abs(final.worker_accuracy[worker_id] - accuracy) <= TOL
        assert final.confidence.keys() == cold.confidence.keys()
        for task_id, value in cold.confidence.items():
            assert abs(final.confidence[task_id] - value) <= TOL

    @given(campaign=streamed_campaigns(), backend=st.sampled_from(
        ["reference", "vectorized"]
    ))
    @settings(max_examples=20, derandomize=True)
    def test_refresh_exact_on_both_backends(self, campaign, backend):
        dataset, batches = campaign
        config = DateConfig()
        online = OnlineDATE(config)
        for batch in batches:
            online.ingest(batch)
        final = online.refresh()
        if backend == "reference":
            cold = run_reference(DATE(config), dataset)
        else:
            cold = DATE(config).run(dataset)
        assert final.truths == cold.truths
        assert final.iterations == cold.iterations
        np.testing.assert_allclose(
            final.accuracy_matrix, cold.accuracy_matrix, atol=TOL, rtol=0
        )
