"""Fast Dawid–Skene: hard EM over per-worker confusion matrices.

The Dawid–Skene model with hard (MAP) assignments in the E-step — the
"Fast Dawid–Skene" variant (Sinha et al. 2018) — vectorized over
:class:`~repro.core.indexing.ClaimArrays`:

- a shared label vocabulary is built from every observed claim value
  (sorted, so an order-preserving relabeling is a no-op);
- **M-step**: from the current hard truth assignments, estimate class
  priors and one smoothed ``L × L`` confusion matrix per worker
  (``C_i[l, l'] = P(worker i claims l' | truth is l)``);
- **E-step**: score every *observed* value of a task by
  ``log prior + Σ log C_i[candidate, claimed]`` over the task's claims
  and assign the argmax (ties to the smallest value code).

The candidate × claim cross product is materialized once per run as a
flat index pair (groups repeated by their task's claim count), so each
iteration is a gather plus a ``bincount`` — no Python loops.  The
computation is deterministic from its majority-vote initialization;
``seed`` is recorded in the fingerprint and reserved for randomized
restarts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..core.date import TruthDiscoveryResult, build_result, iterate_truths
from ..core.engine import _segment_softmax, dense_accuracy, posterior_table, support_table
from ..core.indexing import DatasetIndex, _concat_ranges, segment_first_argmax_code
from ..errors import ConfigurationError
from ..types import Dataset

__all__ = ["FastDawidSkene", "FastDawidSkeneConfig"]


@dataclass(frozen=True)
class FastDawidSkeneConfig:
    """Fast Dawid–Skene hyperparameters."""

    #: Iteration cap of the hard-EM loop.
    max_iterations: int = 50
    #: Additive (Laplace) smoothing of the confusion-matrix counts —
    #: keeps every log-likelihood finite and unseen labels plausible.
    smoothing: float = 0.1
    #: Additive smoothing of the class-prior counts.
    prior_smoothing: float = 0.1

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.smoothing <= 0.0:
            raise ConfigurationError(
                f"smoothing must be > 0, got {self.smoothing}"
            )
        if self.prior_smoothing <= 0.0:
            raise ConfigurationError(
                f"prior_smoothing must be > 0, got {self.prior_smoothing}"
            )

    def evolve(self, **changes: Any) -> "FastDawidSkeneConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


class FastDawidSkene:
    """Hard-EM Dawid–Skene over CSR claim arrays."""

    method_name = "FDS"

    def __init__(
        self, config: FastDawidSkeneConfig | None = None, *, seed: int = 0
    ):
        self.config = config or FastDawidSkeneConfig()
        self.seed = seed

    def __fingerprint__(self) -> Any:
        return {"config": self.config, "seed": self.seed}

    def run(
        self,
        dataset: Dataset | None,
        *,
        index: DatasetIndex | None = None,
        warm_start: TruthDiscoveryResult | None = None,
        lean: bool = False,
    ) -> TruthDiscoveryResult:
        if index is None:
            index = DatasetIndex(dataset)
        cfg = self.config
        arrays = index.arrays
        n_tasks, n_workers = index.n_tasks, index.n_workers
        n_groups = arrays.n_groups

        # Shared label vocabulary over every observed value (sorted).
        vocab = np.unique(np.asarray(arrays.group_values, dtype=object))
        n_labels = max(len(vocab), 1)
        group_label = np.searchsorted(vocab, arrays.group_values).astype(np.int64)
        claim_label = group_label[arrays.claim_group]

        # Candidate × claim cross product, one row per (group, claim of
        # the group's task): group g repeats m_j times, paired with its
        # task's claim positions.
        claims_per_task = arrays.task_ptr[1:] - arrays.task_ptr[:-1]
        m_of_group = claims_per_task[arrays.group_task]
        cand_group = np.repeat(np.arange(n_groups, dtype=np.int64), m_of_group)
        row_claim = _concat_ranges(arrays.task_ptr[arrays.group_task], m_of_group)

        # The group index of each answered task's assigned truth:
        # task_group_ptr[j] + code (codes enumerate a task's groups).
        def truth_groups(codes: np.ndarray) -> np.ndarray:
            answered = np.flatnonzero(codes >= 0)
            return answered, arrays.task_group_ptr[answered] + codes[answered]

        state: dict[str, np.ndarray] = {
            "scores": np.zeros(n_groups),
            "confusion": np.full(
                (n_workers, n_labels, n_labels), 1.0 / n_labels
            ),
            "task_label": np.full(n_tasks, -1, dtype=np.int64),
        }

        def step(codes: np.ndarray) -> np.ndarray:
            answered, t_groups = truth_groups(codes)
            task_label = np.full(n_tasks, -1, dtype=np.int64)
            task_label[answered] = group_label[t_groups]

            # M-step: class priors + per-worker confusion matrices.
            prior_counts = np.bincount(
                task_label[answered], minlength=n_labels
            ).astype(np.float64)
            log_prior = np.log(
                (prior_counts + cfg.prior_smoothing)
                / (prior_counts.sum() + cfg.prior_smoothing * n_labels)
            )
            flat = (
                arrays.claim_worker * (n_labels * n_labels)
                + task_label[arrays.claim_task] * n_labels
                + claim_label
            )
            confusion = np.bincount(
                flat, minlength=n_workers * n_labels * n_labels
            ).astype(np.float64)
            confusion = confusion.reshape(n_workers, n_labels, n_labels)
            confusion += cfg.smoothing
            confusion /= confusion.sum(axis=2, keepdims=True)

            # E-step: log-likelihood of every observed candidate value.
            log_confusion = np.log(confusion)
            loglik = log_confusion[
                arrays.claim_worker[row_claim],
                group_label[cand_group],
                claim_label[row_claim],
            ]
            scores = (
                np.bincount(cand_group, weights=loglik, minlength=n_groups)
                + log_prior[group_label]
            )
            state["scores"] = scores
            state["confusion"] = confusion
            state["task_label"] = task_label
            return segment_first_argmax_code(
                scores, arrays.group_task, arrays.group_code, arrays.task_group_ptr
            )

        initial = arrays.majority_codes()
        if warm_start is not None and warm_start.truths:
            warm = arrays.truth_codes(
                [warm_start.truths.get(tid) for tid in index.task_ids]
            )
            initial = np.where(warm >= 0, warm, initial)

        codes, iterations, converged = iterate_truths(
            initial,
            step,
            max_iterations=cfg.max_iterations,
            state_key=lambda c: c.tobytes(),
            label=self.method_name,
        )

        # Per-claim accuracy: the worker's estimated probability of
        # reporting the truth on that task, C_i[truth, truth].
        task_label = state["task_label"]
        confusion = state["confusion"]
        claim_truth = task_label[arrays.claim_task]
        claim_acc = confusion[arrays.claim_worker, claim_truth, claim_truth]
        posterior = _segment_softmax(
            state["scores"], arrays.group_task, arrays.task_group_ptr
        )
        return build_result(
            index,
            arrays.truth_values(codes),
            dense_accuracy(arrays, claim_acc),
            posterior_table(arrays, posterior),
            support_table(arrays, posterior),
            dependence={},
            iterations=iterations,
            converged=converged,
            method=self.method_name,
        )
