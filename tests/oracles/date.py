"""Alg. 1 over the scalar step oracles: DATE, ED and NC references.

These are the drivers the product's array kernels replaced, kept as
plain functions so the differential suites can run every algorithm
twice — once through :mod:`repro.core.engine`, once through the
per-element loops of this package — and compare the result bundles.
:func:`run_reference` dispatches on an algorithm instance, so a test
can write ``run_reference(DATE(config), dataset)`` next to
``DATE(config).run(dataset)``.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.baselines import enumerate_dependence
from repro.baselines.enumerate_dependence import (
    EnumerateDependence,
    _enumerated_independence,
)
from repro.baselines.no_copier import NoCopier
from repro.core.config import DateConfig
from repro.core.date import TruthDiscoveryResult, iterate_truths
from repro.core.dependence import DependencePosterior
from repro.core.indexing import DatasetIndex
from repro.types import Dataset

from .accuracy import (
    discounted_value_posteriors,
    update_accuracy_matrix,
    value_posteriors,
    worker_mean_accuracy,
)
from .dependence import compute_pairwise_dependence, directed_probability
from .independence import IndependenceTable, independence_probabilities
from .indexing import (
    initial_accuracy_matrix,
    majority_vote,
    value_groups,
)
from .support import select_truths, support_counts

__all__ = [
    "build_result",
    "closed_form_independence",
    "date_independence",
    "date_reference",
    "ed_independence",
    "no_copier_reference",
    "run_reference",
]


def date_independence(
    config: DateConfig,
    index: DatasetIndex,
    dependence: dict[tuple[int, int], DependencePosterior],
) -> IndependenceTable:
    """DATE's step 2: the greedy-order discount of Eq. 16."""
    return independence_probabilities(
        index,
        dependence,
        copy_prob_r=config.copy_prob_r,
        ordering=config.ordering,
        discount_mode=config.discount_mode,
    )


def closed_form_independence(edge_probs: list[float]) -> float:
    """``Π (1 - p)`` over ``edge_probs``: the mass of the no-active-edge
    configuration that ED's enumeration sums, in closed form."""
    result = 1.0
    for p in edge_probs:
        result *= 1.0 - p
    return result


def ed_independence(
    config: DateConfig,
    index: DatasetIndex,
    dependence: dict[tuple[int, int], DependencePosterior],
) -> IndependenceTable:
    """ED's step 2: explicit enumeration over every co-provider, up to
    the product's ``EXACT_ENUMERATION_LIMIT`` edges per worker."""
    limit = enumerate_dependence.EXACT_ENUMERATION_LIMIT
    r = config.copy_prob_r
    table: IndependenceTable = []
    for groups in value_groups(index):
        per_value: dict[str, dict[int, float]] = {}
        for value, group in groups.items():
            scores: dict[int, float] = {}
            for worker in group:
                edge_probs = [
                    r * directed_probability(dependence, worker, other)
                    for other in group
                    if other != worker
                ]
                if len(edge_probs) <= limit:
                    scores[worker] = _enumerated_independence(edge_probs)
                else:
                    scores[worker] = closed_form_independence(edge_probs)
            per_value[value] = scores
        table.append(per_value)
    return table


def date_reference(
    config: DateConfig,
    index: DatasetIndex,
    *,
    independence_hook=date_independence,
    method: str = "DATE",
) -> TruthDiscoveryResult:
    """Alg. 1 over the scalar per-element kernels."""
    cfg = config

    truths = majority_vote(index)
    accuracy = initial_accuracy_matrix(index, cfg.initial_accuracy)

    dependence: dict[tuple[int, int], DependencePosterior] = {}
    independence = None
    posteriors = None
    support = None

    def step(truths):
        nonlocal dependence, independence, posteriors, support, accuracy
        dependence = compute_pairwise_dependence(
            index,
            truths,
            accuracy,
            copy_prob_r=cfg.copy_prob_r,
            prior_alpha=cfg.prior_alpha,
            false_values=cfg.false_values,
            accuracy_clamp=cfg.accuracy_clamp,
        )
        independence = independence_hook(cfg, index, dependence)
        if cfg.discounted_posterior:
            posteriors = discounted_value_posteriors(
                index,
                accuracy,
                independence,
                false_values=cfg.false_values,
                accuracy_clamp=cfg.accuracy_clamp,
            )
        else:
            posteriors = value_posteriors(
                index,
                accuracy,
                false_values=cfg.false_values,
                accuracy_clamp=cfg.accuracy_clamp,
            )
        accuracy = update_accuracy_matrix(
            index, posteriors, granularity=cfg.granularity
        )
        support = support_counts(
            index,
            accuracy,
            independence,
            similarity=cfg.similarity,
            similarity_weight=cfg.similarity_weight,
        )
        return select_truths(support)

    truths, iterations, converged = iterate_truths(
        truths,
        step,
        max_iterations=cfg.max_iterations,
        state_key=tuple,
        label="DATE",
    )
    return build_result(
        index,
        truths,
        accuracy,
        posteriors if posteriors is not None else [],
        support if support is not None else [],
        dependence,
        iterations=iterations,
        converged=converged,
        method=method,
    )


def no_copier_reference(config: DateConfig, index: DatasetIndex) -> TruthDiscoveryResult:
    """NC over the scalar kernels: step 3 only, every ``I = 1``."""
    cfg = config

    truths = majority_vote(index)
    accuracy = initial_accuracy_matrix(index, cfg.initial_accuracy)

    # All workers fully independent: I_v^j(i) = 1 everywhere.
    independence = [
        {value: {i: 1.0 for i in group} for value, group in groups.items()}
        for groups in value_groups(index)
    ]

    posteriors: list[dict[str, float]] = []
    support: list[dict[str, float]] = []

    def step(truths):
        nonlocal posteriors, support, accuracy
        posteriors = value_posteriors(
            index,
            accuracy,
            false_values=cfg.false_values,
            accuracy_clamp=cfg.accuracy_clamp,
        )
        accuracy = update_accuracy_matrix(
            index, posteriors, granularity=cfg.granularity
        )
        support = support_counts(
            index,
            accuracy,
            independence,
            similarity=cfg.similarity,
            similarity_weight=cfg.similarity_weight,
        )
        return select_truths(support)

    truths, iterations, converged = iterate_truths(
        truths,
        step,
        max_iterations=cfg.max_iterations,
        state_key=tuple,
        label="NC",
    )
    return build_result(
        index,
        truths,
        accuracy,
        posteriors,
        support,
        dependence={},
        iterations=iterations,
        converged=converged,
        method=NoCopier.method_name,
    )


def run_reference(
    algorithm,
    dataset: Dataset,
    *,
    index: DatasetIndex | None = None,
) -> TruthDiscoveryResult:
    """The oracle twin of ``algorithm.run(dataset, ...)``.

    ``algorithm`` is a :class:`~repro.core.date.DATE`,
    :class:`~repro.baselines.EnumerateDependence` or
    :class:`~repro.baselines.NoCopier` instance; its config
    parameterizes the reference run.
    """
    index = index or DatasetIndex(dataset)
    if isinstance(algorithm, NoCopier):
        return no_copier_reference(algorithm.config, index)
    return date_reference(
        algorithm.config,
        index,
        independence_hook=(
            ed_independence
            if isinstance(algorithm, EnumerateDependence)
            else date_independence
        ),
        method=algorithm.method_name,
    )


def build_result(
    index: DatasetIndex,
    truths: list[str | None],
    accuracy: np.ndarray,
    posteriors: list[dict[str, float]],
    support: list[dict[str, float]],
    dependence: Mapping[tuple[int, int], DependencePosterior],
    *,
    iterations: int,
    converged: bool,
    method: str,
) -> TruthDiscoveryResult:
    """Assemble a :class:`TruthDiscoveryResult` from the oracle's tables.

    The table-shaped assembler the product's array one
    (:func:`repro.core.date.build_result`) replaced: each confidence is
    looked up in the task's posterior table, each worker accuracy
    gathered back out of the dense matrix, so the differential suites
    pin the two assemblies against each other.
    """
    truth_map = {
        index.task_ids[j]: value
        for j, value in enumerate(truths)
        if value is not None
    }
    confidence = {}
    for j, value in enumerate(truths):
        if value is None:
            continue
        if j < len(posteriors) and posteriors[j]:
            confidence[index.task_ids[j]] = posteriors[j].get(value, 0.0)
    support_map = {
        index.task_ids[j]: dict(counts)
        for j, counts in enumerate(support)
        if counts
    }
    means = worker_mean_accuracy(index, accuracy)
    worker_accuracy = {
        worker_id: float(means[i]) for i, worker_id in enumerate(index.worker_ids)
    }
    worker_ids = tuple(index.worker_ids)
    dependence_map = {
        (worker_ids[a], worker_ids[b]): posterior
        for (a, b), posterior in dependence.items()
    }
    return TruthDiscoveryResult(
        truths=truth_map,
        accuracy_matrix=accuracy,
        worker_accuracy=worker_accuracy,
        confidence=confidence,
        support=support_map,
        dependence=dependence_map,
        iterations=iterations,
        converged=converged,
        method=method,
        worker_ids=worker_ids,
        task_ids=tuple(index.task_ids),
        _ground_truths={t.task_id: t.truth for t in index.tasks if t.truth is not None},
    )
