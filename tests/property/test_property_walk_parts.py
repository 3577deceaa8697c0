"""Property tests: cutting the pair-table walk into parts changes no byte.

``ClaimArrays._pair_tables`` and ``ClaimArrays.multi_group_slots`` come
out of the compiled walk (``src/repro/core/pairtables.c``), cut over
ranges of the second worker ``b`` into one part per CPU once the walk
has at least ``_PART_MIN_ROWS`` rows.  Here the part count is forced to
1, 2 and 3 at any size, and every fresh walk must give the one-part
walk's tables and slot map byte for byte, and the numpy oracle's
(``tests/oracles/pairtables.py``) value for value.

The corpus holds parts that get no worker and parts that get workers
but no row, idle workers, a task answered by every worker, claims
arriving out of worker order, campaigns without pairs and the
100k-worker sparse campaign.  Concurrent walks share the parts pool
and each still gets its one-part bytes.  The int32 refusal must still
fire after the count pass and before any part fills, with two parts.
"""

from __future__ import annotations

import contextlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings

import repro.core.engine as engine
from repro import Dataset, Task, WorkerProfile
from repro.core import DatasetIndex, indexing
from repro.errors import DataFormatError

from tests.oracles.streaming import _subcampaign
from tests.property.test_property_pair_tables import (
    assert_matches_oracle,
    campaigns,
    grown_indexes,
)

VALUES = ("A", "B", "C")
PARTS = (1, 2, 3)


@contextlib.contextmanager
def forced(parts: int):
    """Walk in ``parts`` parts at any size, recording the cuts."""
    cuts: list[list[int]] = []

    def recording(ptr, first, stop, pieces):
        got = pair_cuts(ptr, first, stop, pieces)
        cuts.append(got)
        return got

    pair_cuts = engine._pair_cuts
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_PARTS", parts)
        patch.setattr(engine, "_PART_MIN_ROWS", 0)
        patch.setattr(engine, "_pair_cuts", recording)
        yield cuts


def fresh_walk(arrays) -> list[bytes]:
    """The tables and slot map of a new walk over ``arrays``, as bytes."""
    arrays.__dict__.pop("_pair_tables", None)
    arrays.__dict__.pop("multi_group_slots", None)
    out = [table.tobytes() for table in arrays._pair_tables]
    for slots in arrays.multi_group_slots:
        out += [str(slots.shape).encode(), slots.tobytes()]
    return out


def walk_cuts(arrays) -> dict[int, list[int]]:
    """Each forced part count's cuts over the second workers."""
    cuts = {}
    for parts in PARTS:
        with forced(parts) as seen:
            fresh_walk(arrays)
        (cuts[parts],) = seen
    return cuts


def assert_parts_change_no_byte(arrays) -> None:
    with forced(1) as seen:
        want = fresh_walk(arrays)
        assert seen == [[0, arrays.n_workers]]
    assert_matches_oracle(arrays)
    for parts in PARTS[1:]:
        with forced(parts) as seen:
            got = fresh_walk(arrays)
            assert len(seen) == 1 and len(seen[0]) == parts + 1
            assert_matches_oracle(arrays)
        assert got == want, parts


def sparse_campaign(n_workers: int, n_tasks: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    claims = {}
    for j in range(n_tasks):
        for i in rng.choice(n_workers, size=int(rng.integers(0, 5)), replace=False):
            claims[(f"w{i}", f"t{j}")] = VALUES[int(rng.integers(2))]
    return Dataset(
        tasks=tuple(Task(task_id=f"t{j}", domain=VALUES) for j in range(n_tasks)),
        workers=tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n_workers)),
        claims=claims,
    )


def dataset(n_workers: int, answers: dict[tuple[int, int], str]) -> Dataset:
    """Workers ``w0..`` and tasks ``t0..``; ``answers[(i, j)]`` is worker
    i's value on task j, arriving in the dict's order."""
    n_tasks = 1 + max((j for _, j in answers), default=0)
    return Dataset(
        tasks=tuple(Task(task_id=f"t{j}", domain=VALUES) for j in range(n_tasks)),
        workers=tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n_workers)),
        claims={(f"w{i}", f"t{j}"): value for (i, j), value in answers.items()},
    )


class TestPartsChangeNoByte:
    @given(campaign=campaigns(max_workers=12, max_tasks=8))
    @settings(max_examples=120, derandomize=True)
    def test_random_campaigns(self, campaign):
        assert_parts_change_no_byte(DatasetIndex(campaign).arrays)

    @given(case=grown_indexes())
    @settings(max_examples=40, derandomize=True)
    def test_extended_indexes_and_their_sub_campaigns(self, case):
        index, dirty = case
        assert_parts_change_no_byte(index.arrays)
        assert_parts_change_no_byte(DatasetIndex(_subcampaign(index, dirty)).arrays)

    def test_one_task_answered_by_every_worker(self):
        # Claims arrive from the last worker to the first, with a split
        # vote: every pair shares the task, half of them the value.
        answers = {(i, 0): "AB"[i % 2] for i in reversed(range(9))}
        answers.update({(i, 1): "C" for i in (4, 0, 8)})
        arrays = DatasetIndex(dataset(9, answers)).arrays
        assert arrays.n_pairs == 36
        assert_parts_change_no_byte(arrays)

    def test_parts_without_workers(self):
        # Every row belongs to the last worker, so the first part takes
        # every worker and the others none.
        answers = {(i, j): "A" for j in range(5) for i in (5, 0)}
        arrays = DatasetIndex(dataset(6, answers)).arrays
        cuts = walk_cuts(arrays)
        assert cuts[3] == [0, 6, 6, 6]
        assert_parts_change_no_byte(arrays)

    def test_parts_with_workers_but_no_row(self):
        # Worker 1 holds every row and workers 2..7 answer alone (or
        # idle), so the last part walks workers that pair with no one.
        answers = {(i, j): "B" for j in range(2) for i in (1, 0)}
        answers.update({(i, i): "A" for i in range(2, 6)})
        arrays = DatasetIndex(dataset(8, answers)).arrays
        cuts = walk_cuts(arrays)
        assert cuts[2] == [0, 2, 8] and arrays.n_rows == 2
        assert_parts_change_no_byte(arrays)

    @pytest.mark.parametrize("n_workers", [0, 1, 4])
    def test_no_pairs(self, n_workers):
        answers = {(i, i): "A" for i in range(n_workers)}
        arrays = DatasetIndex(dataset(max(n_workers, 1), answers)).arrays
        assert arrays.n_pairs == 0
        assert_parts_change_no_byte(arrays)

    def test_sparse_campaign_with_100k_workers(self):
        arrays = DatasetIndex(sparse_campaign(100_000, 2_000, seed=5)).arrays
        assert arrays.n_pairs > 1000
        assert_parts_change_no_byte(arrays)

    def test_corpus_cuts_leave_parts_empty(self):
        # Guards the random corpus: with three parts, some walks give a
        # part no worker, and some give a part workers but no row.
        no_worker, no_row = [], []

        @given(campaign=campaigns(max_workers=12, max_tasks=8))
        @settings(max_examples=120, derandomize=True)
        def shapes(campaign):
            arrays = DatasetIndex(campaign).arrays
            cuts = walk_cuts(arrays)[3]
            # Rows of the second workers before each worker.
            row_ptr = np.zeros(arrays.n_workers + 1, dtype=np.int64)
            np.add.at(row_ptr, arrays.pair_b.astype(np.int64) + 1, np.diff(arrays.pair_ptr))
            np.cumsum(row_ptr, out=row_ptr)
            no_worker.append(any(a == b for a, b in zip(cuts, cuts[1:])))
            no_row.append(
                any(a < b and row_ptr[a] == row_ptr[b] for a, b in zip(cuts, cuts[1:]))
            )

        shapes()
        assert sum(no_worker) >= 20
        assert sum(no_row) >= 20


class TestConcurrentWalks:
    def test_concurrent_walks_share_the_pool(self):
        # More callers than cores, each walking its own index in three
        # parts on the one pool, with the interpreter switching threads
        # as often as it can: every caller gets its one-part bytes.
        indexes = [
            DatasetIndex(sparse_campaign(40 + 10 * k, 200, seed=k)).arrays for k in range(6)
        ]
        with forced(1):
            wants = [fresh_walk(arrays) for arrays in indexes]
        got: dict[int, list[bytes]] = {}

        def caller(k: int) -> None:
            for _ in range(20):
                got[k] = fresh_walk(indexes[k])
                if got[k] != wants[k]:
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with forced(3):
                threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(indexes))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [got.get(k) for k in range(len(indexes))] == wants


class TestInt32RefusalInParts:
    def test_refused_after_counting_before_any_part_fills(self, monkeypatch):
        # One task shared by five workers: 10 rows fit under a limit of
        # 19, but the slot map's 2 * 10 pair slots do not.
        answers = {(i, 0): "A" for i in (4, 2, 0, 3, 1)}
        arrays = DatasetIndex(dataset(5, answers)).arrays
        calls = []
        kernels = indexing._kernels

        class Recording:
            def __getattr__(self, name):
                kernel = getattr(kernels, name)

                def call(*args):
                    calls.append((name, args))
                    return kernel(*args)

                return call

        monkeypatch.setattr(indexing, "_kernels", Recording())
        monkeypatch.setattr(indexing, "_INT32_MAX", 2 * 10 - 1)
        with forced(2) as cuts:
            with pytest.raises(DataFormatError, match="10 pairs overflow"):
                arrays._pair_tables
        assert cuts == [[0, 4, 5]]
        walks = [args for name, args in calls if name == "pair_tables"]
        # Both parts counted (pair_a NULL); none filled.
        assert sorted(args[:2] for args in walks) == [(0, 4), (4, 5)]
        assert all(args[17] is None for args in walks)
        assert "_pair_tables" not in arrays.__dict__
        monkeypatch.setattr(indexing, "_INT32_MAX", 2 * 10)
        with forced(2):
            assert arrays.n_pairs == 10 and arrays.n_rows == 10
