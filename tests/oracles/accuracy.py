"""Scalar transcription of DATE step 3 (Eqs. 17-20), kept as an oracle.

Per-task Python loops over the dict-side index structures: value
posteriors (plain and independence-discounted) and the accuracy-matrix
refresh.  The product computes the same quantities with
:func:`repro.core.engine.plain_posterior_groups`,
:func:`repro.core.engine.discounted_posterior_groups` and
:func:`repro.core.engine.accuracy_flat`; the differential suites pin
the two together.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.accuracy import claim_mean_by_worker
from repro.core.falsedist import FalseValueDistribution, UniformFalseValues
from repro.core.indexing import DatasetIndex

from .indexing import claims_by_task, claims_by_worker, value_groups

__all__ = [
    "value_posteriors",
    "discounted_value_posteriors",
    "update_accuracy_matrix",
    "worker_mean_accuracy",
]

_MIN_PROB = 1e-12

#: Posterior tables: task index -> {value: P(v true | D_j)}.
PosteriorTable = list[dict[str, float]]

_GRANULARITIES = ("worker", "task")


def value_posteriors(
    index: DatasetIndex,
    accuracy: np.ndarray,
    *,
    false_values: FalseValueDistribution | None = None,
    accuracy_clamp: tuple[float, float] = (0.01, 0.99),
) -> PosteriorTable:
    """Compute ``P(v true | D_j)`` for every task and observed value.

    Probabilities within one task sum to 1 (there is exactly one true
    value among the observed candidates, Eq. 19).  Tasks without claims
    get an empty table.  Each candidate's log score adds the task's
    claims in worker order, which their arrival order does not change.
    """
    false_values = false_values or UniformFalseValues()
    lo, hi = accuracy_clamp
    table: PosteriorTable = []
    by_task = claims_by_task(index)
    for j, groups in enumerate(value_groups(index)):
        if not groups:
            table.append({})
            continue
        claims = sorted(by_task[j].items())
        log_scores: dict[str, float] = {}
        for candidate in groups:
            log_score = 0.0
            for worker, value in claims:
                acc = min(max(accuracy[worker, j], lo), hi)
                if value == candidate:
                    log_score += math.log(acc)
                else:
                    q = false_values.value_probability(j, index, value, candidate)
                    log_score += math.log(max((1.0 - acc) * q, _MIN_PROB))
            log_scores[candidate] = log_score
        peak = max(log_scores.values())
        weights = {v: math.exp(s - peak) for v, s in log_scores.items()}
        total = sum(weights.values())
        table.append({v: w / total for v, w in weights.items()})
    return table


def discounted_value_posteriors(
    index: DatasetIndex,
    accuracy: np.ndarray,
    independence,
    *,
    false_values: FalseValueDistribution | None = None,
    accuracy_clamp: tuple[float, float] = (0.01, 0.99),
) -> PosteriorTable:
    """Value posteriors with each vote's log-odds weighted by ``I_v^j(i)``.

    Alg. 1 line 23 as literally written ignores the dependence discount
    when computing ``P(v)``, so copier-inflated majorities corrupt the
    accuracy estimates (Eq. 17) even when step 2 has already identified
    the copiers — the Table 1 example is then unrecoverable.  Following
    Dong et al. [15], whose vote count this generalizes, each supporting
    worker contributes

        I_v^j(i) · ln( A_i / ((1 - A_i) · q_j(v)) )

    to candidate ``v``'s log-score (``q_j`` the false-value probability,
    ``1/num_j`` under the uniform assumption), and the scores are
    softmax-normalized per task.  With all ``I = 1`` this equals Eq. 20
    exactly, so the undiscounted behaviour is the special case.

    ``independence`` is the step-2 table
    (:data:`tests.oracles.independence.IndependenceTable`).
    """
    false_values = false_values or UniformFalseValues()
    lo, hi = accuracy_clamp
    table: PosteriorTable = []
    for j, groups in enumerate(value_groups(index)):
        if not groups:
            table.append({})
            continue
        log_scores: dict[str, float] = {}
        for candidate, group in groups.items():
            q = max(
                false_values.value_probability(j, index, candidate, None), _MIN_PROB
            )
            score = 0.0
            scores_by_worker = independence[j][candidate]
            for worker in group:
                acc = min(max(accuracy[worker, j], lo), hi)
                score += scores_by_worker[worker] * (
                    math.log(acc) - math.log(max((1.0 - acc) * q, _MIN_PROB))
                )
            log_scores[candidate] = score
        peak = max(log_scores.values())
        weights = {v: math.exp(s - peak) for v, s in log_scores.items()}
        total = sum(weights.values())
        table.append({v: w / total for v, w in weights.items()})
    return table


def update_accuracy_matrix(
    index: DatasetIndex,
    posteriors: PosteriorTable,
    *,
    granularity: str = "worker",
) -> np.ndarray:
    """Refine the accuracy matrix ``A`` from the value posteriors (Eq. 17).

    Returns a dense ``n_workers x n_tasks`` matrix with zeros for
    unanswered (worker, task) pairs.  A worker's mean adds its claims'
    posteriors one by one in task order, then divides by their count,
    which their arrival order does not change.
    """
    if granularity not in _GRANULARITIES:
        raise ValueError(
            f"granularity must be one of {_GRANULARITIES}, got {granularity!r}"
        )
    matrix = np.zeros((index.n_workers, index.n_tasks), dtype=np.float64)
    if granularity == "task":
        for i, claims in enumerate(claims_by_worker(index)):
            for j, value in claims.items():
                matrix[i, j] = posteriors[j].get(value, 0.0)
        return matrix

    for i, claims in enumerate(claims_by_worker(index)):
        if not claims:
            continue
        total = 0.0
        for j, value in sorted(claims.items()):
            total += posteriors[j].get(value, 0.0)
        mean = total / len(claims)
        for j in claims:
            matrix[i, j] = mean
    return matrix


def worker_mean_accuracy(index: DatasetIndex, accuracy: np.ndarray) -> np.ndarray:
    """Per-worker mean accuracy over answered tasks (0 for idle workers)."""
    arrays = index.arrays
    return claim_mean_by_worker(
        arrays, accuracy[arrays.claim_worker, arrays.claim_task]
    )
