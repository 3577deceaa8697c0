"""Shared fixtures: small, fast, deterministic datasets and instances.

Also the single home of the Hypothesis profile: ``deadline=None`` is a
suite-wide policy (CI machines stall unpredictably; wall-clock is not a
correctness property), registered once here instead of repeated in
every ``@settings`` across the property suites.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro import Dataset, SOACInstance, Task, WorkerProfile
from repro.datasets import generate_qatar_living_like

hypothesis_settings.register_profile("repro", deadline=None)
hypothesis_settings.load_profile("repro")


@pytest.fixture
def tiny_dataset() -> Dataset:
    """Four tasks, five workers, one obvious copier pair (w4 copies w3).

    Ground truth: every task's truth is its domain's first value "A".
    Workers w1, w2 are reliable independents, w3 errs on t2/t3, and w4
    copies w3 verbatim.  w5 answers only half the tasks.
    """
    tasks = tuple(
        Task(
            task_id=f"t{j}",
            domain=("A", "B", "C"),
            requirement=1.0,
            value=2.0,
            truth="A",
        )
        for j in range(4)
    )
    workers = (
        WorkerProfile(worker_id="w1", cost=2.0, reliability=0.9),
        WorkerProfile(worker_id="w2", cost=3.0, reliability=0.9),
        WorkerProfile(worker_id="w3", cost=1.0, reliability=0.5),
        WorkerProfile(
            worker_id="w4",
            cost=1.5,
            reliability=0.5,
            is_copier=True,
            sources=("w3",),
            copy_prob=1.0,
        ),
        WorkerProfile(worker_id="w5", cost=2.5, reliability=0.8),
    )
    claims = {
        ("w1", "t0"): "A", ("w1", "t1"): "A", ("w1", "t2"): "A", ("w1", "t3"): "A",
        ("w2", "t0"): "A", ("w2", "t1"): "A", ("w2", "t2"): "A", ("w2", "t3"): "A",
        ("w3", "t0"): "A", ("w3", "t1"): "B", ("w3", "t2"): "B", ("w3", "t3"): "B",
        ("w4", "t0"): "A", ("w4", "t1"): "B", ("w4", "t2"): "B", ("w4", "t3"): "B",
        ("w5", "t0"): "A", ("w5", "t1"): "A",
    }
    return Dataset(tasks=tasks, workers=workers, claims=claims)


@pytest.fixture
def qlf_small() -> Dataset:
    """A shrunken Qatar-Living-like world: fast but structurally faithful."""
    return generate_qatar_living_like(
        seed=3, n_tasks=40, n_workers=24, n_copiers=6, target_claims=600
    )


@pytest.fixture
def soac_small() -> SOACInstance:
    """A hand-checkable SOAC instance.

    Three tasks, four workers:

    - w0: covers t0 fully (acc 1.0), bid 1  -> cheap specialist
    - w1: covers t1 fully (acc 1.0), bid 1  -> cheap specialist
    - w2: covers t2 fully (acc 1.0), bid 1  -> cheap specialist
    - w3: covers all three at acc 1.0, bid 2 -> cheap generalist

    With requirements (1, 1, 1): the greedy picks w3 first
    (2 / 3 < 1 / 1), then any one task remains covered... actually w3
    alone covers everything, so S = {w3}, social cost 2; the optimum is
    also {w3}.
    """
    return SOACInstance(
        worker_ids=("w0", "w1", "w2", "w3"),
        task_ids=("t0", "t1", "t2"),
        requirements=np.array([1.0, 1.0, 1.0]),
        accuracy=np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [1.0, 1.0, 1.0],
            ]
        ),
        bids=np.array([1.0, 1.0, 1.0, 2.0]),
        costs=np.array([1.0, 1.0, 1.0, 2.0]),
        task_values=np.array([5.0, 5.0, 5.0]),
    )


@pytest.fixture
def soac_medium() -> SOACInstance:
    """A seeded random instance large enough for non-trivial auctions."""
    rng = np.random.default_rng(11)
    n, m = 12, 6
    accuracy = np.where(rng.random((n, m)) < 0.6, rng.uniform(0.3, 0.9, (n, m)), 0.0)
    bids = rng.uniform(1.0, 8.0, n)
    return SOACInstance(
        worker_ids=tuple(f"w{i}" for i in range(n)),
        task_ids=tuple(f"t{j}" for j in range(m)),
        requirements=np.full(m, 1.5),
        accuracy=accuracy,
        bids=bids,
        costs=bids.copy(),
        task_values=np.full(m, 6.0),
    )


#: Every array field of ClaimArrays the incremental append path must
#: splice identically to a cold rebuild; shared by the indexing unit
#: tests and the streaming property suite so a new field cannot be
#: covered by one and silently missed by the other.
CLAIM_ARRAY_FIELDS = (
    "claim_task", "claim_worker", "claim_code", "claim_group", "task_ptr",
    "group_ptr", "group_task", "group_size", "task_group_ptr",
    "worker_ptr", "worker_claims",
)


def assert_same_claim_arrays(got, want) -> None:
    """Field-for-field equality of two ClaimArrays views."""
    import numpy as np

    for name in CLAIM_ARRAY_FIELDS:
        np.testing.assert_array_equal(
            getattr(got, name), getattr(want, name), err_msg=name
        )
    assert got.group_values.tolist() == want.group_values.tolist()
