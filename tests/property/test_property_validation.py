"""Property tests: validating a delta and applying it agree.

`DatasetIndex.extended` runs `DatasetIndex.validate_extension`, and an
`OnlineDATE.ingest` extends its index before the durable store's
write-ahead journal append, so a batch that validation passes must
apply, and a batch that applying would reject must fail validation with
the same message and leave the estimator as it was — otherwise a
poisoned record reaches the journal, or a good batch gets a 400.  Random campaigns grow batch by batch; each then gets
a random delta mixing colliding task and worker ids, copy sources that
do not exist, claims by new and unknown workers, duplicate claims on
tasks and workers from earlier batches, and out-of-domain values.
``derandomize=True`` keeps the corpus stable.

A campaign's integrity rules are written once, so validating a delta
against the index and building the merged campaign as a ``Dataset``
must also agree, message for message, on every delta that repeats no
claim the campaign holds (merging two claim dicts hides a repeat).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, Task, WorkerProfile
from repro.core import DatasetIndex
from repro.errors import DataFormatError
from repro.streaming import ClaimBatch, OnlineDATE

from tests.conftest import CLAIM_ARRAY_FIELDS, assert_same_claim_arrays

VALUES = ("A", "B", "C")


@st.composite
def campaigns_with_delta(draw, max_workers=5, max_tasks=5, max_batches=3):
    """Batches growing a campaign, then one random delta against it."""
    n = draw(st.integers(min_value=1, max_value=max_workers))
    m = draw(st.integers(min_value=1, max_value=max_tasks))
    n_batches = draw(st.integers(min_value=1, max_value=max_batches))
    tasks = [
        Task(task_id=f"t{j}", domain=VALUES if draw(st.booleans()) else ())
        for j in range(m)
    ]
    workers = [WorkerProfile(worker_id=f"w{i}") for i in range(n)]
    published = [draw(st.integers(0, n_batches - 1)) for _ in range(m)]
    joined = [draw(st.integers(0, n_batches - 1)) for _ in range(n)]
    arrival = {
        (f"w{i}", f"t{j}"): (
            draw(st.sampled_from(VALUES)),
            draw(st.integers(max(joined[i], published[j]), n_batches - 1)),
        )
        for i in range(n)
        for j in range(m)
        if draw(st.booleans())
    }
    batches = [
        ClaimBatch(
            claims={key: value for key, (value, b) in arrival.items() if b == k},
            tasks=tuple(t for t, b in zip(tasks, published) if b == k),
            workers=tuple(w for w, b in zip(workers, joined) if b == k),
        )
        for k in range(n_batches)
    ]

    task_ids = [t.task_id for t in tasks]
    worker_ids = [w.worker_id for w in workers]
    new_tasks = {}
    for k in range(draw(st.integers(0, 2))):
        collides = draw(st.sampled_from((False,) * 4 + (True,)))
        task_id = draw(st.sampled_from(task_ids)) if collides else f"n{k}"
        new_tasks[task_id] = Task(
            task_id=task_id, domain=VALUES if draw(st.booleans()) else ()
        )
    new_workers = {}
    for k in range(draw(st.integers(0, 2))):
        collides = draw(st.sampled_from((False,) * 4 + (True,)))
        worker_id = draw(st.sampled_from(worker_ids)) if collides else f"v{k}"
        sources = tuple(
            s
            for s in draw(st.lists(st.sampled_from(worker_ids + ["v0", "ghost"]), max_size=2))
            if s != worker_id
        )
        new_workers[worker_id] = WorkerProfile(
            worker_id=worker_id,
            is_copier=bool(sources),
            sources=tuple(dict.fromkeys(sources)),
            copy_prob=0.5 if sources else 0.0,
        )
    claimants = worker_ids * 2 + list(new_workers) * 2 + ["ghost"]
    claimed = task_ids * 2 + list(new_tasks) * 2 + ["ghost"]
    claims = {
        (draw(st.sampled_from(claimants)), draw(st.sampled_from(claimed))): draw(
            st.sampled_from(VALUES + ("Z",))
        )
        for _ in range(draw(st.integers(0, 4)))
    }
    delta = ClaimBatch(
        claims=claims,
        tasks=tuple(new_tasks.values()),
        workers=tuple(new_workers.values()),
    )
    return batches, delta


def _outcome(apply):
    """The DataFormatError message ``apply()`` raises, or None."""
    try:
        apply()
    except DataFormatError as exc:
        return str(exc)
    return None


def _state(index: DatasetIndex) -> dict:
    """Everything a rejected delta must leave as it was."""
    state = {
        name: getattr(index.arrays, name).copy()
        for name in CLAIM_ARRAY_FIELDS + ("claim_seq",)
    }
    state.update(
        task_ids=list(index.task_ids),
        worker_ids=list(index.worker_ids),
        num_false=index.num_false.copy(),
        claims=list(index.dataset.claims.items()),
        workers=index.dataset.workers,
    )
    return state


def _assert_same_state(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(got[name], value, err_msg=name)
        else:
            assert got[name] == value, name


class TestValidateMatchesApply:
    @given(case=campaigns_with_delta())
    @settings(max_examples=150, derandomize=True)
    def test_index_validation_matches_extension(self, case):
        batches, delta = case
        index = DatasetIndex(Dataset(tasks=(), workers=(), claims={}))
        for batch in batches:
            index = index.extended(
                tasks=batch.tasks, workers=batch.workers, claims=batch.claims
            ).index
        before = _state(index)
        kwargs = dict(tasks=delta.tasks, workers=delta.workers, claims=delta.claims)

        validated = _outcome(lambda: index.validate_extension(**kwargs))
        extensions = []
        applied = _outcome(lambda: extensions.append(index.extended(**kwargs)))
        assert validated == applied
        _assert_same_state(_state(index), before)
        if applied is None:
            # An accepted delta is a valid campaign: no claim answered
            # twice, and a cold index of the merged campaign (whose
            # constructor re-checks every reference) equals the extension.
            old = index.dataset
            assert not set(delta.claims) & set(old.claims)
            merged = Dataset(
                tasks=old.tasks + delta.tasks,
                workers=old.workers + delta.workers,
                claims={**old.claims, **delta.claims},
            )
            assert extensions[0].index.dataset == merged
            assert_same_claim_arrays(extensions[0].index.arrays, DatasetIndex(merged).arrays)

    @given(case=campaigns_with_delta())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_online_validate_matches_ingest(self, case):
        batches, delta = case
        online = OnlineDATE()
        for batch in batches:
            online.ingest(batch)
        index, truths, n_batches = online.index, online.truths, online.n_batches
        before = _state(index)

        validated = _outcome(
            lambda: index.validate_extension(
                tasks=delta.tasks, workers=delta.workers, claims=delta.claims
            )
        )
        applied = _outcome(lambda: online.ingest(delta))
        assert validated == applied
        if applied is not None:
            assert online.index is index
            assert online.truths == truths
            assert online.n_batches == n_batches
        _assert_same_state(_state(index), before)


class TestExtensionMatchesDataset:
    @given(case=campaigns_with_delta())
    @settings(max_examples=150, derandomize=True)
    def test_validation_matches_merged_dataset(self, case):
        batches, delta = case
        index = DatasetIndex(Dataset(tasks=(), workers=(), claims={}))
        for batch in batches:
            index = index.extended(
                tasks=batch.tasks, workers=batch.workers, claims=batch.claims
            ).index
        old = index.dataset
        claims = {key: value for key, value in delta.claims.items() if key not in old.claims}

        validated = _outcome(
            lambda: index.validate_extension(
                tasks=delta.tasks, workers=delta.workers, claims=claims
            )
        )
        merged = _outcome(
            lambda: Dataset(
                tasks=old.tasks + delta.tasks,
                workers=old.workers + delta.workers,
                claims={**old.claims, **claims},
            )
        )
        assert validated == merged
