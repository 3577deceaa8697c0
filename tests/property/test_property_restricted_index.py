"""Property tests: a restricted index view equals a cold sub-campaign index.

`OnlineDATE` re-estimates each batch's dirty tasks on
`DatasetIndex.restricted(dirty)`, a view gathered from the campaign's
CSR segments.  It replaced rebuilding those tasks as a fresh `Dataset`
(`tests.oracles.streaming._subcampaign`) and indexing that cold.  The
two must agree field by field — ids, claim arrival order, `num_false`,
every CSR array, the pair tables and the Eq. 16 slot map — and a DATE
sub-run on either must be bit-identical.

Campaigns grow through `extended()` as the service grows them: claims
arrive shuffled across batches, some batches only publish tasks or only
register workers, and copiers may name sources outside the dirty scope.
``derandomize=True`` keeps the corpus stable.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DATE, Dataset, DateConfig, Task, WorkerProfile
from repro.core import DatasetIndex
from repro.core.falsedist import ZipfFalseValues

from tests.conftest import assert_same_claim_arrays
from tests.oracles import claims_by_task, claims_by_worker, value_groups
from tests.oracles.streaming import _subcampaign

VALUES = ("A", "B", "C", "D")


@st.composite
def grown_indexes(draw, max_workers=7, max_tasks=6, max_batches=4):
    """A campaign index grown batch by batch, plus a random dirty set."""
    n = draw(st.integers(min_value=2, max_value=max_workers))
    m = draw(st.integers(min_value=1, max_value=max_tasks))
    n_batches = draw(st.integers(min_value=1, max_value=max_batches))
    tasks = tuple(
        Task(
            task_id=f"t{j}",
            domain=VALUES if draw(st.booleans()) else (),
            truth=draw(st.sampled_from((None,) + VALUES)),
        )
        for j in range(m)
    )
    # Workers register in non-decreasing batches and copy only from
    # lower-numbered workers, so every source is known on arrival; the
    # last worker always copies from the first.
    joined = sorted(draw(st.integers(0, n_batches - 1)) for _ in range(n))
    workers = []
    for i in range(n):
        sources = tuple(
            f"w{s}" for s in range(i) if s == 0 and i == n - 1 or draw(st.booleans())
        )
        workers.append(
            WorkerProfile(
                worker_id=f"w{i}",
                is_copier=bool(sources),
                sources=sources,
                copy_prob=0.5 if sources else 0.0,
            )
        )
    published = [draw(st.integers(0, n_batches - 1)) for _ in range(m)]
    claims = []
    for i in range(n):
        for j in range(m):
            if draw(st.booleans()):
                first = max(joined[i], published[j])
                claims.append(
                    (
                        (f"w{i}", f"t{j}"),
                        draw(st.sampled_from(VALUES)),
                        draw(st.integers(first, n_batches - 1)),
                    )
                )
    claims = draw(st.permutations(claims))

    index = DatasetIndex(Dataset(tasks=(), workers=(), claims={}))
    index.arrays  # materialized, as the streaming service keeps it
    for k in range(n_batches):
        index = index.extended(
            tasks=[t for t, b in zip(tasks, published) if b == k],
            workers=[w for w, b in zip(workers, joined) if b == k],
            claims={key: value for key, value, b in claims if b == k},
        ).index
    # A tasks-only and a workers-only batch (an idle copier whose source
    # may lie outside any dirty scope).
    if draw(st.booleans()):
        index = index.extended(tasks=[Task(task_id="t-late")]).index
    if draw(st.booleans()):
        late = WorkerProfile(
            worker_id="w-late", is_copier=True, sources=("w0",), copy_prob=0.5
        )
        index = index.extended(workers=[late]).index

    dirty = draw(
        st.lists(
            st.integers(0, index.n_tasks - 1), min_size=1, max_size=index.n_tasks,
            unique=True,
        )
    )
    return index, sorted(dirty)


def _items(dicts):
    return [list(d.items()) for d in dicts]


def assert_view_matches_cold(view: DatasetIndex, cold: DatasetIndex) -> None:
    assert view.task_ids == cold.task_ids
    assert view.worker_ids == cold.worker_ids
    assert view.task_pos == cold.task_pos
    assert view.worker_pos == cold.worker_pos
    assert view.tasks == cold.tasks
    # Order matters: the undiscounted posterior ranks claims by arrival.
    assert _items(claims_by_task(view)) == _items(claims_by_task(cold))
    assert _items(claims_by_worker(view)) == _items(claims_by_worker(cold))
    assert _items(value_groups(view)) == _items(value_groups(cold))
    np.testing.assert_array_equal(view.num_false, cold.num_false)
    assert view.num_false.dtype == cold.num_false.dtype
    assert_same_claim_arrays(view.arrays, cold.arrays)
    for position, (got, want) in enumerate(
        zip(view.arrays._pair_tables, cold.arrays._pair_tables)
    ):
        np.testing.assert_array_equal(got, want, err_msg=f"pair table {position}")
        assert got.dtype == want.dtype, f"pair table {position}"
    assert len(view.arrays.multi_group_slots) == len(cold.arrays.multi_group_slots)
    for got, want in zip(view.arrays.multi_group_slots, cold.arrays.multi_group_slots):
        np.testing.assert_array_equal(got, want)


class TestRestrictedIndex:
    @given(case=grown_indexes())
    @settings(max_examples=80, derandomize=True)
    def test_view_matches_cold_subcampaign_index(self, case):
        index, dirty = case
        view, positions = index.restricted(np.asarray(dirty, dtype=np.int64))
        sub = _subcampaign(index, dirty)
        assert_view_matches_cold(view, DatasetIndex(sub))
        assert view.dataset == sub
        assert list(view.dataset.claims.items()) == list(sub.claims.items())

        # Each view claim maps back to the same (worker, task, value).
        arrays = index.arrays
        assert len(positions) == view.arrays.n_claims
        np.testing.assert_array_equal(
            arrays.claim_task[positions], np.asarray(dirty)[view.arrays.claim_task]
        )
        workers = [index.worker_pos[w] for w in view.worker_ids]
        np.testing.assert_array_equal(
            arrays.claim_worker[positions],
            np.asarray(workers, dtype=np.int64)[view.arrays.claim_worker],
        )
        np.testing.assert_array_equal(
            arrays.claim_code[positions], view.arrays.claim_code
        )

    @given(case=grown_indexes())
    @settings(max_examples=40, derandomize=True)
    def test_sub_run_is_bit_identical(self, case):
        index, dirty = case
        view, _ = index.restricted(np.asarray(dirty, dtype=np.int64))
        sub = _subcampaign(index, dirty)
        configs = (
            DateConfig(),
            DateConfig(false_values=ZipfFalseValues(), discounted_posterior=False),
        )
        for config in configs:
            got = DATE(config).run(None, index=view, lean=True)
            want = DATE(config).run(sub, lean=True)
            assert got.truths == want.truths
            assert got.iterations == want.iterations
            assert got.accuracy_matrix.tobytes() == want.accuracy_matrix.tobytes()
            assert {t: c.hex() for t, c in got.confidence.items()} == {
                t: c.hex() for t, c in want.confidence.items()
            }
            assert got.worker_accuracy == want.worker_accuracy
            assert got._ground_truths == want._ground_truths
