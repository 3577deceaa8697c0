"""Property tests: the compiled pair-table walk equals the numpy builder.

``ClaimArrays._pair_tables`` (the five int32 co-answering pair tables)
and ``ClaimArrays.multi_group_slots`` (the int32 Eq. 16 slot map) come
out of one walk in ``src/repro/core/pairtables.c``.  The numpy builder
it replaced (``tests/oracles/pairtables.py``: one ``argsort`` of the
int64 row key, then one scatter of the same-value rows) is the
reference.  The narrow layout, widened to the oracle's seven int64
tables (``ps_pair`` and ``ps_task`` derived on access), must equal it
value for value, and so must every slot-map bucket — on cold
campaigns, restricted views and indexes grown through
``DatasetIndex.extended``.  ``derandomize=True`` keeps the corpus
stable.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, Task, WorkerProfile
from repro.core import DatasetIndex

from tests.oracles.pairtables import oracle_pair_tables, scatter_group_slots
from tests.property.test_property_restricted_index import grown_indexes

TABLES = ("pair_a", "pair_b", "pair_ptr", "ps_pair", "ps_task", "ps_claim_a", "ps_claim_b")
VALUES = ("A", "B", "C")


def widened(arrays) -> tuple[np.ndarray, ...]:
    """The narrow pair tables as the oracle's seven int64 tables."""
    assert all(table.dtype == np.int32 for table in arrays._pair_tables)
    return tuple(getattr(arrays, name).astype(np.int64) for name in TABLES)


def assert_matches_oracle(arrays) -> None:
    want = oracle_pair_tables(arrays)
    for name, got, ref in zip(TABLES, widened(arrays), want, strict=True):
        assert ref.dtype == np.int64, name
        np.testing.assert_array_equal(got, ref, err_msg=name)
    slots = arrays.multi_group_slots
    ref_slots = scatter_group_slots(arrays, want)
    assert len(slots) == len(ref_slots)
    for (m, claim_idx), got, ref in zip(arrays.multi_group_buckets, slots, ref_slots):
        assert got.dtype == np.int32 and got.shape == (len(claim_idx), m, m)
        np.testing.assert_array_equal(got, ref)


@st.composite
def campaigns(draw, max_workers=9, max_tasks=7):
    """A campaign mixing unclaimed, single-claimant, unanimous and
    split tasks, with idle workers at random positions and claims in a
    random arrival order."""
    n = draw(st.integers(min_value=1, max_value=max_workers))
    idle = draw(st.integers(min_value=0, max_value=3))
    m = draw(st.integers(min_value=1, max_value=max_tasks))
    claims = []
    for j in range(m):
        shape = draw(st.sampled_from(("unclaimed", "single", "unanimous", "split")))
        size = {"unclaimed": 0, "single": 1}.get(shape)
        if size is None:
            size = draw(st.integers(min(2, n), n))
        claimants = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
        shared = draw(st.sampled_from(VALUES))
        for i in claimants:
            value = draw(st.sampled_from(VALUES)) if shape == "split" else shared
            claims.append(((f"w{i}", f"t{j}"), value))
    claims = draw(st.permutations(claims))
    workers = draw(st.permutations([WorkerProfile(worker_id=f"w{i}") for i in range(n + idle)]))
    tasks = tuple(Task(task_id=f"t{j}", domain=VALUES) for j in range(m))
    return Dataset(tasks=tasks, workers=tuple(workers), claims=dict(claims))


class TestPairTableWalk:
    @given(dataset=campaigns())
    @settings(max_examples=150, derandomize=True)
    def test_cold_campaigns(self, dataset):
        assert_matches_oracle(DatasetIndex(dataset).arrays)

    @given(dataset=campaigns(), data=st.data())
    @settings(max_examples=80, derandomize=True)
    def test_restricted_views(self, dataset, data):
        index = DatasetIndex(dataset)
        tasks = data.draw(
            st.lists(st.integers(0, index.n_tasks - 1), min_size=1, unique=True)
        )
        view, _ = index.restricted(np.array(sorted(tasks), dtype=np.int64))
        assert_matches_oracle(view.arrays)

    @given(case=grown_indexes())
    @settings(max_examples=80, derandomize=True)
    def test_extended_indexes_and_their_views(self, case):
        index, dirty = case
        assert_matches_oracle(index.arrays)
        assert_matches_oracle(index.restricted(np.asarray(dirty, dtype=np.int64))[0].arrays)

    @given(dataset=campaigns())
    @settings(max_examples=30, derandomize=True)
    def test_slot_map_first_runs_the_same_walk(self, dataset):
        arrays = DatasetIndex(dataset).arrays
        slots = arrays.multi_group_slots
        assert "_pair_tables" in arrays.__dict__
        assert arrays.multi_group_slots is slots
        assert_matches_oracle(arrays)


def test_unanimous_task_fills_its_whole_block():
    dataset = Dataset(
        tasks=(Task(task_id="t0", domain=VALUES),),
        workers=tuple(WorkerProfile(worker_id=f"w{i}") for i in range(4)),
        claims={(f"w{i}", "t0"): "B" for i in (3, 0, 2, 1)},
    )
    arrays = DatasetIndex(dataset).arrays
    ((block,),) = arrays.multi_group_slots
    n_pairs = arrays.n_pairs
    assert n_pairs == 6
    # Pairs are numbered (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
    expected = np.array([[12, 0, 1, 2], [6, 12, 3, 4], [7, 9, 12, 5], [8, 10, 11, 12]])
    np.testing.assert_array_equal(block, expected)
    assert_matches_oracle(arrays)


def test_sparse_campaign_with_100k_workers():
    # Any step quadratic in the worker count (10^10 here) would hang.
    rng = np.random.default_rng(5)
    n_workers, n_tasks = 100_000, 2_000
    claims = {}
    for j in range(n_tasks):
        for i in rng.choice(n_workers, size=int(rng.integers(0, 5)), replace=False):
            claims[(f"w{i}", f"t{j}")] = VALUES[int(rng.integers(2))]
    dataset = Dataset(
        tasks=tuple(Task(task_id=f"t{j}", domain=VALUES) for j in range(n_tasks)),
        workers=tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n_workers)),
        claims=claims,
    )
    arrays = DatasetIndex(dataset).arrays
    assert arrays.n_pairs > 1000
    assert_matches_oracle(arrays)
