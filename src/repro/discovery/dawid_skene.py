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
computation is deterministic from its majority-vote initialization.
"""

from __future__ import annotations

import numpy as np

from ..core.date import TruthDiscoveryResult, build_result, iterate_truths
from ..core.engine import _segment_softmax
from ..core.indexing import DatasetIndex, _concat_ranges, segment_first_argmax_code
from ..types import Dataset

__all__ = ["FastDawidSkene"]


#: Iteration cap of the hard-EM loop.
_MAX_ITERATIONS = 50
#: Additive (Laplace) smoothing of the confusion-matrix counts — keeps
#: every log-likelihood finite and unseen labels plausible.
_SMOOTHING = 0.1
#: Additive smoothing of the class-prior counts.
_PRIOR_SMOOTHING = 0.1


class FastDawidSkene:
    """Hard-EM Dawid–Skene over CSR claim arrays."""

    method_name = "FDS"

    def run(
        self,
        dataset: Dataset | None,
        *,
        index: DatasetIndex | None = None,
        lean: bool = False,
    ) -> TruthDiscoveryResult:
        if index is None:
            index = DatasetIndex(dataset)
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
                (prior_counts + _PRIOR_SMOOTHING)
                / (prior_counts.sum() + _PRIOR_SMOOTHING * n_labels)
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
            confusion += _SMOOTHING
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
            return segment_first_argmax_code(scores, arrays.task_group_ptr)

        codes, iterations, converged = iterate_truths(
            arrays.majority_codes(),
            step,
            max_iterations=_MAX_ITERATIONS,
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
            codes,
            claim_acc,
            posterior,
            posterior,
            iterations=iterations,
            converged=converged,
            method=self.method_name,
            lean=lean,
        )
