"""Scalar transcription of Alg. 1 line 28 and Eq. 21, kept as an oracle.

Per-task support counts (optionally similarity-adjusted) and the
lexicographic-tie argmax over the dict-side index structures.  The
product computes the same with :func:`repro.core.engine.support_flat`
and :func:`repro.core.engine.select_truth_codes`; the differential
suites pin the two together.
"""

from __future__ import annotations

import numpy as np

from repro.core.indexing import DatasetIndex
from repro.core.support import SimilarityFn

from .independence import IndependenceTable
from .indexing import value_groups

__all__ = ["support_counts", "select_truths", "segment_first_argmax_numpy"]

#: Support tables: task index -> {value: support count}.
SupportTable = list[dict[str, float]]


def support_counts(
    index: DatasetIndex,
    accuracy: np.ndarray,
    independence: IndependenceTable,
    *,
    similarity: SimilarityFn | None = None,
    similarity_weight: float = 0.0,
) -> SupportTable:
    """Compute (optionally similarity-adjusted) support counts per task.

    ``similarity`` activates the Sec. IV-A adjustment with weight
    ``similarity_weight`` (the paper's ρ).  Passing a similarity with a
    zero weight is allowed and leaves the base counts unchanged.
    """
    if similarity is not None and not 0.0 <= similarity_weight <= 1.0:
        raise ValueError(
            f"similarity_weight must be in [0, 1], got {similarity_weight}"
        )
    table: SupportTable = []
    for j, groups in enumerate(value_groups(index)):
        base: dict[str, float] = {}
        for value, group in groups.items():
            scores = independence[j][value]
            base[value] = float(
                sum(accuracy[i, j] * scores[i] for i in group)
            )
        if similarity is None or similarity_weight == 0.0 or len(base) <= 1:
            table.append(base)
            continue
        adjusted: dict[str, float] = {}
        for value, group in groups.items():
            bonus = 0.0
            members = set(group)
            for other_value, other_group in groups.items():
                if other_value == value:
                    continue
                sim = similarity(value, other_value)
                if sim <= 0.0:
                    continue
                outside = [i for i in other_group if i not in members]
                if not outside:
                    continue
                other_scores = independence[j][other_value]
                mass = sum(accuracy[i, j] * other_scores[i] for i in outside)
                bonus += sim * mass
            adjusted[value] = base[value] + similarity_weight * bonus
        table.append(adjusted)
    return table


def select_truths(support: SupportTable) -> list[str | None]:
    """Pick the value with maximal support per task (lexicographic ties).

    Tasks with no claims yield ``None``.
    """
    truths: list[str | None] = []
    for counts in support:
        if not counts:
            truths.append(None)
            continue
        best_score = max(counts.values())
        candidates = [v for v, s in counts.items() if s == best_score]
        truths.append(min(candidates))
    return truths


def segment_first_argmax_numpy(values: np.ndarray, task_group_ptr: np.ndarray) -> np.ndarray:
    """The numpy per-task argmax the compiled ``argmax.c`` replaced.

    A segment max by ``np.maximum.reduceat`` over the tasks with groups,
    then each task's first group equal to it; tasks without groups, and
    tasks whose max is NaN, get -1.
    """
    n_tasks = len(task_group_ptr) - 1
    out = np.full(n_tasks, -1, dtype=np.int64)
    if len(values) == 0:
        return out
    group_task = np.repeat(np.arange(n_tasks), np.diff(task_group_ptr))
    group_code = np.arange(len(values)) - task_group_ptr[group_task]
    starts = task_group_ptr[:-1]
    nonempty = task_group_ptr[1:] > starts
    max_of_task = np.full(n_tasks, -np.inf)
    max_of_task[nonempty] = np.maximum.reduceat(values, starts[nonempty])
    hit = np.flatnonzero(values == max_of_task[group_task])
    tasks_hit, first = np.unique(group_task[hit], return_index=True)
    out[tasks_hit] = group_code[hit[first]]
    return out
