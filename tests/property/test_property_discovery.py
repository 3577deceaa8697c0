"""Property tests: zoo-wide invariants on random campaigns.

Every algorithm in the registry, on randomly shaped worlds:

- determinism — two fresh discoverers under one seed agree bit for bit;
- sanity — precision lands in [0, 1], every estimated truth is a value
  some worker actually claimed for that task, unanswered tasks are
  omitted, worker accuracies are finite;
- unanimity — when all claims on a task agree, every algorithm returns
  the unanimous value;
- order-preserving relabel — renaming values through a monotone
  bijection maps the truths and leaves the numeric state untouched.

``derandomize=True`` keeps the corpus stable: this is an acceptance
gate, not a fuzzing lottery.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, Task, WorkerProfile
from repro.discovery import ALGORITHM_NAMES, make_discoverer

VALUES = ("A", "B", "C", "D")


@st.composite
def campaigns(draw, max_workers=8, max_tasks=6):
    n = draw(st.integers(min_value=2, max_value=max_workers))
    m = draw(st.integers(min_value=1, max_value=max_tasks))
    tasks = tuple(
        Task(task_id=f"t{j}", domain=VALUES, truth="A") for j in range(m)
    )
    workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n))
    claims: dict[tuple[str, str], str] = {}
    for i in range(n):
        for j in range(m):
            if draw(st.booleans()):
                claims[(f"w{i}", f"t{j}")] = draw(st.sampled_from(VALUES))
    if not claims:
        claims[("w0", "t0")] = draw(st.sampled_from(VALUES))
    return Dataset(tasks=tasks, workers=workers, claims=claims)


def _run(name, dataset, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_discoverer(name, **kwargs).run(dataset)


@settings(max_examples=10, derandomize=True)
@given(dataset=campaigns())
def test_determinism_and_sanity(dataset):
    claimed = {}
    for (worker_id, task_id), value in dataset.claims.items():
        claimed.setdefault(task_id, set()).add(value)
    for name in ALGORITHM_NAMES:
        first = _run(name, dataset)
        second = _run(name, dataset)
        assert first.truths == second.truths, name
        assert first.worker_accuracy == second.worker_accuracy, name
        assert np.array_equal(first.accuracy_matrix, second.accuracy_matrix)
        assert 0.0 <= first.precision() <= 1.0, name
        for task_id, value in first.truths.items():
            assert value in claimed[task_id], name
        for task in dataset.tasks:
            if task.task_id not in claimed:
                assert task.task_id not in first.truths, name
        for accuracy in first.worker_accuracy.values():
            assert np.isfinite(accuracy), name


@settings(max_examples=10, derandomize=True)
@given(dataset=campaigns(max_workers=5, max_tasks=4))
def test_unanimous_tasks_resolve_to_the_unanimous_value(dataset):
    unanimous = tuple(
        Task(task_id=t.task_id, domain=t.domain, truth=t.truth)
        for t in dataset.tasks
    )
    claims = {key: "B" for key in dataset.claims}
    forced = Dataset(tasks=unanimous, workers=dataset.workers, claims=claims)
    answered = {task_id for _, task_id in claims}
    for name in ALGORITHM_NAMES:
        result = _run(name, forced)
        assert set(result.truths) == answered, name
        assert all(value == "B" for value in result.truths.values()), name


@settings(max_examples=8, derandomize=True)
@given(dataset=campaigns(max_workers=6, max_tasks=5))
def test_order_preserving_relabel(dataset):
    mapping = {"A": "pa", "B": "pb", "C": "pc", "D": "pd"}
    relabeled = Dataset(
        tasks=tuple(
            dataclasses.replace(
                task,
                domain=tuple(mapping[v] for v in task.domain),
                truth=mapping[task.truth],
            )
            for task in dataset.tasks
        ),
        workers=dataset.workers,
        claims={key: mapping[v] for key, v in dataset.claims.items()},
    )
    for name in ALGORITHM_NAMES:
        base = _run(name, dataset)
        mapped = _run(name, relabeled)
        assert mapped.truths == {
            task_id: mapping[value] for task_id, value in base.truths.items()
        }, name
        assert mapped.worker_accuracy == base.worker_accuracy, name
