"""Pair tables pinned to a per-task enumeration oracle.

:func:`oracle_pair_tables` is the straightforward build: for every task,
the upper triangle of its claim block via ``np.triu_indices``, each
pair oriented so its first claim is the smaller worker's, then a
three-key ``lexsort`` by (first worker, second worker, task) and an
``np.unique`` over the worker pairs.  The cold build keeps five int32
tables (``ClaimArrays._pair_tables``); widened to int64, with
``ps_pair`` and ``ps_task`` derived on access, they must reproduce the
oracle's seven arrays exactly — on a cold index and on one grown
through ``DatasetIndex.extended``, which never carries materialized
tables, so the extension rebuilds its own on first use.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro import Dataset, Task, WorkerProfile
from repro.core import DatasetIndex, indexing
from repro.core.indexing import _check_int32_tables
from repro.errors import DataFormatError

from tests.oracles.pairtables import pair_row_keys
from tests.property.test_property_streaming import streamed_campaigns

TABLES = ("pair_a", "pair_b", "pair_ptr", "ps_pair", "ps_task", "ps_claim_a", "ps_claim_b")


def oracle_pair_tables(arrays) -> tuple[np.ndarray, ...]:
    """The seven pair tables, one task at a time."""
    task_ptr = arrays.task_ptr
    ca_parts: list[np.ndarray] = []
    cb_parts: list[np.ndarray] = []
    for j in range(arrays.n_tasks):
        start, end = int(task_ptr[j]), int(task_ptr[j + 1])
        if end - start < 2:
            continue
        local_a, local_b = np.triu_indices(end - start, k=1)
        ca_parts.append(start + local_a)
        cb_parts.append(start + local_b)
    if not ca_parts:
        empty = np.empty(0, dtype=np.int64)
        return (empty, empty, np.zeros(1, dtype=np.int64), empty, empty, empty, empty)
    ca = np.concatenate(ca_parts)
    cb = np.concatenate(cb_parts)
    swap = arrays.claim_worker[ca] > arrays.claim_worker[cb]
    ca, cb = np.where(swap, cb, ca), np.where(swap, ca, cb)
    wa, wb = arrays.claim_worker[ca], arrays.claim_worker[cb]
    tasks = arrays.claim_task[ca]
    order = np.lexsort((tasks, wb, wa))
    wa, wb = wa[order], wb[order]
    key = wa * arrays.n_workers + wb
    uniq, first, counts = np.unique(key, return_index=True, return_counts=True)
    pair_ptr = np.zeros(len(uniq) + 1, dtype=np.int64)
    np.cumsum(counts, out=pair_ptr[1:])
    return (
        wa[first],
        wb[first],
        pair_ptr,
        np.repeat(np.arange(len(uniq), dtype=np.int64), counts),
        tasks[order],
        ca[order],
        cb[order],
    )


def assert_matches_oracle(arrays) -> None:
    assert [table.dtype for table in arrays._pair_tables] == [np.dtype(np.int32)] * 5
    for name, want in zip(TABLES, oracle_pair_tables(arrays), strict=True):
        got = getattr(arrays, name).astype(np.int64)
        assert want.dtype == np.int64, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def _dataset(n_workers: int, task_claims: list[dict[int, str]]) -> Dataset:
    tasks = tuple(
        Task(task_id=f"t{j}", domain=("A", "B", "C"), truth="A")
        for j in range(len(task_claims))
    )
    workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n_workers))
    claims = {
        (f"w{i}", f"t{j}"): value
        for j, per_task in enumerate(task_claims)
        for i, value in per_task.items()
    }
    return Dataset(tasks=tasks, workers=workers, claims=claims)


#: Claims sort by (task, value code, worker), so a larger worker
#: answering a smaller value comes first in its task's block.
UNORDERED = [
    {4: "A", 0: "B", 2: "C", 1: "B"},
    {3: "A", 1: "A", 0: "C"},
    {2: "B", 4: "A"},
]


class TestColdBuild:
    def test_no_co_answering_pairs(self):
        arrays = DatasetIndex(_dataset(3, [{0: "A"}, {1: "B"}, {}, {2: "A"}])).arrays
        assert arrays.n_pairs == 0
        assert_matches_oracle(arrays)

    def test_empty_campaign(self):
        arrays = DatasetIndex(Dataset(tasks=(), workers=(), claims={})).arrays
        assert_matches_oracle(arrays)

    def test_tasks_with_zero_one_and_two_claimants(self):
        arrays = DatasetIndex(
            _dataset(4, [{}, {3: "A"}, {2: "B", 0: "A"}, {}, {1: "C", 3: "C"}])
        ).arrays
        assert arrays.n_pairs == 2
        assert_matches_oracle(arrays)

    def test_claim_order_not_ascending_in_worker(self):
        arrays = DatasetIndex(_dataset(5, UNORDERED)).arrays
        assert np.any(np.diff(arrays.claim_worker[: arrays.task_ptr[1]]) < 0)
        assert_matches_oracle(arrays)
        assert np.all(
            arrays.claim_worker[arrays.ps_claim_a] < arrays.claim_worker[arrays.ps_claim_b]
        )

    @given(campaign=streamed_campaigns(max_workers=8, max_tasks=8))
    @settings(max_examples=60, derandomize=True)
    def test_random_campaigns(self, campaign):
        dataset, _ = campaign
        assert_matches_oracle(DatasetIndex(dataset).arrays)


class TestExtension:
    @staticmethod
    def _extend(base: Dataset, **delta):
        index = DatasetIndex(base)
        index.arrays._pair_tables  # materialized, yet extended() drops them
        arrays = index.extended(**delta).index.arrays
        assert "_pair_tables" not in arrays.__dict__
        return arrays

    def test_only_new_tasks(self):
        full = _dataset(5, UNORDERED + [{0: "A", 3: "B", 4: "A"}, {1: "C"}])
        base = Dataset(
            tasks=full.tasks[:3],
            workers=full.workers,
            claims={k: v for k, v in full.claims.items() if k[1] in ("t0", "t1", "t2")},
        )
        arrays = self._extend(
            base,
            tasks=full.tasks[3:],
            claims={k: v for k, v in full.claims.items() if k[1] in ("t3", "t4")},
        )
        assert_matches_oracle(arrays)

    def test_only_claims_on_old_tasks(self):
        base = _dataset(6, UNORDERED + [{5: "A"}, {}])
        arrays = self._extend(
            base,
            claims={
                ("w5", "t0"): "A",  # a new smallest-code claim in a busy task
                ("w3", "t2"): "C",
                ("w0", "t3"): "B",  # a task's first pair
                ("w1", "t4"): "A",  # a previously unclaimed task
            },
        )
        assert_matches_oracle(arrays)

    def test_from_no_pairs_to_pairs(self):
        base = _dataset(3, [{0: "A"}, {1: "B"}])
        arrays = self._extend(
            base,
            workers=(WorkerProfile(worker_id="w3"),),
            claims={("w3", "t0"): "B", ("w2", "t1"): "B"},
        )
        assert arrays.n_pairs == 2
        assert_matches_oracle(arrays)

    @given(campaign=streamed_campaigns(max_workers=8, max_tasks=8))
    @settings(max_examples=60, derandomize=True)
    def test_random_batch_streams(self, campaign):
        _, batches = campaign
        index = DatasetIndex(Dataset(tasks=(), workers=(), claims={}))
        index.arrays._pair_tables
        for batch in batches:
            index = index.extended(
                tasks=batch.tasks, workers=batch.workers, claims=batch.claims
            ).index
            assert "_pair_tables" not in index.arrays.__dict__
            assert_matches_oracle(index.arrays)


class TestPairRowKeys:
    def test_key_order_is_worker_pair_then_task(self):
        first = np.array([0, 0, 0, 1])
        second = np.array([1, 1, 2, 2])
        task = np.array([0, 3, 0, 1])
        keys = pair_row_keys(first, second, task, n_workers=3, n_tasks=4)
        assert np.all(np.diff(keys) > 0)

    def test_int64_overflow_is_refused(self):
        one = np.zeros(1, dtype=np.int64)
        pair_row_keys(one, one, one, n_workers=2**21, n_tasks=2**20)  # 2^62 fits
        with pytest.raises(DataFormatError, match="overflow"):
            pair_row_keys(one, one, one, n_workers=2**21, n_tasks=2**21)


INT32_MAX = 2**31 - 1


class TestInt32Refusal:
    """The walk refuses, between its count and fill passes, an index
    whose int32 tables would wrap; a campaign that large cannot be built
    here, so the helper is driven with synthetic counts."""

    @pytest.mark.parametrize(
        "counts",
        [
            dict(n_workers=INT32_MAX, n_claims=INT32_MAX, n_rows=INT32_MAX, n_pairs=0),
            dict(n_workers=0, n_claims=0, n_rows=0, n_pairs=2**30 - 1),  # slot 2^31 - 2
        ],
    )
    def test_largest_counts_that_fit(self, counts):
        _check_int32_tables(**counts)

    @pytest.mark.parametrize(
        ("counts", "what"),
        [
            (dict(n_workers=INT32_MAX + 1, n_claims=1, n_rows=1, n_pairs=1), "workers"),
            (dict(n_workers=1, n_claims=INT32_MAX + 1, n_rows=1, n_pairs=1), "claims"),
            (dict(n_workers=1, n_claims=1, n_rows=INT32_MAX + 1, n_pairs=1), "pair rows"),
            (dict(n_workers=1, n_claims=1, n_rows=1, n_pairs=2**30), "pairs"),
        ],
    )
    def test_one_past_is_refused(self, counts, what):
        with pytest.raises(DataFormatError, match=f"{what} overflow the int32 pair tables"):
            _check_int32_tables(**counts)

    def test_walk_checks_its_counts_before_filling(self, monkeypatch):
        arrays = DatasetIndex(_dataset(5, UNORDERED)).arrays
        monkeypatch.setattr(indexing, "_INT32_MAX", 2 * 8 - 1)  # 8 pairs, 10 rows
        with pytest.raises(DataFormatError, match="8 pairs overflow"):
            arrays._pair_tables
        assert "_pair_tables" not in arrays.__dict__
        monkeypatch.setattr(indexing, "_INT32_MAX", 2 * 8)
        assert arrays.n_pairs == 8 and arrays.n_rows == 10


def test_bytes_per_row_pair_and_slot():
    # 8 bytes a row, 12 a pair (plus pair_ptr's end) and 4 a slot: at
    # 10x (1.82M rows, 0.54M pairs, 1.59M slots) 27.4 MB, under 28 MB,
    # where the int64 layout took 84 MB.
    arrays = DatasetIndex(_dataset(6, UNORDERED + [{5: "A", 0: "A", 3: "A"}])).arrays
    n_rows, n_pairs = arrays.n_rows, arrays.n_pairs
    assert n_rows > n_pairs > 0
    pair_a, pair_b, pair_ptr, *rows = arrays._pair_tables
    assert sum(table.nbytes for table in rows) == 8 * n_rows
    assert sum(table.nbytes for table in (pair_a, pair_b, pair_ptr)) == 12 * n_pairs + 4
    slots = arrays.multi_group_slots
    assert sum(s.nbytes for s in slots) == 4 * sum(s.size for s in slots) > 0
