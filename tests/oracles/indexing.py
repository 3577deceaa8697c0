"""Dict-side views of a :class:`~repro.core.indexing.DatasetIndex`.

An index holds its claims once, as :class:`~repro.core.indexing.ClaimArrays`.
The scalar oracles and the tests read them through the per-task,
per-value, per-worker and per-pair dicts derived here from the index's
campaign (``index.dataset.claims``, in arrival order) — never from the
arrays the oracles check.  :func:`truth_values` alone reads the arrays:
it decodes the per-task value codes a kernel returns through their own
group table, so a test can compare them with an oracle's values.
"""

from __future__ import annotations

import numpy as np

from repro.core.indexing import ClaimArrays, DatasetIndex

__all__ = [
    "claims_by_task",
    "claims_by_worker",
    "initial_accuracy_matrix",
    "majority_vote",
    "co_answering_pairs",
    "shared_tasks",
    "truth_values",
    "value_groups",
]


def claims_by_task(index: DatasetIndex) -> list[dict[int, str]]:
    """``claims_by_task(index)[j]`` is ``{worker_index: value}``, each
    task's claims in arrival order."""
    by_task: list[dict[int, str]] = [{} for _ in range(index.n_tasks)]
    for (worker_id, task_id), value in index.dataset.claims.items():
        by_task[index.task_pos[task_id]][index.worker_pos[worker_id]] = value
    return by_task


def value_groups(index: DatasetIndex) -> list[dict[str, tuple[int, ...]]]:
    """``value_groups(index)[j]`` is ``{value: ascending worker indexes}``
    (the paper's ``W_v^j``), values in sorted order."""
    groups = []
    for claims in claims_by_task(index):
        by_value: dict[str, list[int]] = {}
        for i, value in claims.items():
            by_value.setdefault(value, []).append(i)
        groups.append({v: tuple(sorted(ws)) for v, ws in sorted(by_value.items())})
    return groups


def claims_by_worker(index: DatasetIndex) -> list[dict[int, str]]:
    """``claims_by_worker(index)[i]`` is ``{task_index: value}``, each
    worker's claims in arrival order."""
    by_worker: list[dict[int, str]] = [{} for _ in range(index.n_workers)]
    for (worker_id, task_id), value in index.dataset.claims.items():
        by_worker[index.worker_pos[worker_id]][index.task_pos[task_id]] = value
    return by_worker


def co_answering_pairs(index: DatasetIndex) -> list[tuple[int, int]]:
    """All worker pairs ``(a, b)`` with ``a < b`` sharing at least one task.

    Dependence is only defined (and only informative) for pairs that
    co-answered something, so step 1 iterates exactly this list.
    """
    return sorted(shared_tasks(index))


def shared_tasks(index: DatasetIndex) -> dict[tuple[int, int], tuple[int, ...]]:
    """``(a, b) -> task indexes answered by both`` for every pair."""
    shared: dict[tuple[int, int], list[int]] = {}
    for j, claims in enumerate(claims_by_task(index)):
        members = sorted(claims)
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                shared.setdefault((members[x], members[y]), []).append(j)
    return {p: tuple(shared[p]) for p in sorted(shared)}


def initial_accuracy_matrix(index: DatasetIndex, epsilon: float) -> np.ndarray:
    """Dense ``n_workers x n_tasks`` accuracy matrix initialized to ε.

    Entries for (worker, task) pairs without a claim are 0: a worker
    that did not answer a task contributes no accuracy to it (and no
    coverage in the auction stage).
    """
    matrix = np.zeros((index.n_workers, index.n_tasks), dtype=np.float64)
    for j, claims in enumerate(claims_by_task(index)):
        for i in claims:
            matrix[i, j] = epsilon
    return matrix


def majority_vote(index: DatasetIndex) -> list[str | None]:
    """Per-task majority value (``None`` for unanswered tasks).

    Ties break lexicographically on the value so results are
    deterministic.  This is both the MV baseline's core and DATE's
    initial truth estimate (Sec. III-A: "the true value can be
    obtained through the voting mechanism ... initially").
    """
    winners: list[str | None] = []
    for groups in value_groups(index):
        if not groups:
            winners.append(None)
            continue
        # One pass: largest count wins, count ties go to the
        # lexicographically smallest value.
        best = min(groups.items(), key=lambda item: (-len(item[1]), item[0]))
        winners.append(best[0])
    return winners


def truth_values(arrays: ClaimArrays, codes: np.ndarray) -> list[str | None]:
    """Per-task value codes (-1: no claims) decoded to their values."""
    return [
        None if code < 0 else arrays.group_values[int(arrays.task_group_ptr[j]) + code]
        for j, code in enumerate(codes.tolist())
    ]
