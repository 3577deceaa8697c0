"""TruthFinder: iterative source trust × claim confidence (Yin et al.).

The classic web-source truth-discovery fixed point, vectorized over
:class:`~repro.core.indexing.ClaimArrays`:

1. each worker's *trust score* is ``τ_i = -ln(1 - t_i)`` so that
   independent supporters combine additively;
2. each value group's raw confidence score is the sum of its providers'
   trust scores, adjusted by the *implication* term: categorical values
   of one task are mutually exclusive, so every competing group's score
   counts against a value with weight ``ρ`` (the influence factor);
3. the adjusted score maps to a confidence in (0, 1) through a damped
   logistic (``γ``), and each worker's trust becomes the mean
   confidence of its claims.

Truths are the per-task confidence argmax (ties to the smallest value
code, like every engine in this repo), and the loop runs under the
shared :func:`~repro.core.date.iterate_truths` convergence harness.
The parameters are the original paper's fixed constants (``ρ = 0.5``,
``γ = 0.3``, ``t_0 = 0.9``), and the computation is deterministic.
"""

from __future__ import annotations

import numpy as np

from ..core.date import TruthDiscoveryResult, build_result, iterate_truths
from ..core.indexing import DatasetIndex, segment_first_argmax_code
from ..types import Dataset

__all__ = ["TruthFinder"]


#: Initial worker trustworthiness ``t_0``.
_INITIAL_TRUST = 0.9
#: Damping factor ``γ`` of the logistic squashing the adjusted score.
_DAMPENING = 0.3
#: Weight ``ρ`` of the mutual-exclusion implication between competing
#: values of one task.
_INFLUENCE = 0.5
#: Iteration cap of the trust/confidence fixed point.
_MAX_ITERATIONS = 50
#: Trust is clamped into this open interval so ``ln(1 - t)`` and the
#: logistic stay finite.
_TRUST_LO, _TRUST_HI = 1e-6, 1.0 - 1e-6


class TruthFinder:
    """The TruthFinder fixed point over CSR claim arrays."""

    method_name = "TruthFinder"

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
        arrays = index.arrays
        n_workers = index.n_workers

        worker_counts = np.bincount(arrays.claim_worker, minlength=n_workers)
        trust = np.full(n_workers, _INITIAL_TRUST, dtype=np.float64)
        if warm_start is not None and warm_start.worker_accuracy:
            for i, worker_id in enumerate(index.worker_ids):
                trust[i] = warm_start.worker_accuracy.get(
                    worker_id, _INITIAL_TRUST
                )
        np.clip(trust, _TRUST_LO, _TRUST_HI, out=trust)

        state: dict[str, np.ndarray] = {"confidence": np.zeros(arrays.n_groups)}

        def step(codes: np.ndarray) -> np.ndarray:
            # (1) additive trust scores per value group.
            tau = -np.log1p(-trust)
            score = np.bincount(
                arrays.claim_group,
                weights=tau[arrays.claim_worker],
                minlength=arrays.n_groups,
            )
            # (2) mutual-exclusion implication: competitors' scores
            # subtract with weight ρ (imp(v' -> v) = -1 for v' != v).
            task_total = np.bincount(
                arrays.group_task, weights=score, minlength=index.n_tasks
            )
            adjusted = score - _INFLUENCE * (
                task_total[arrays.group_task] - score
            )
            # (3) damped logistic, written via tanh so large scores
            # never overflow exp().
            confidence = 0.5 * (1.0 + np.tanh(0.5 * _DAMPENING * adjusted))
            state["confidence"] = confidence
            # Trust update: mean claim confidence per worker.
            sums = np.bincount(
                arrays.claim_worker,
                weights=confidence[arrays.claim_group],
                minlength=n_workers,
            )
            new_trust = np.divide(
                sums,
                worker_counts,
                out=np.full(n_workers, _INITIAL_TRUST),
                where=worker_counts > 0,
            )
            np.clip(new_trust, _TRUST_LO, _TRUST_HI, out=trust)
            return segment_first_argmax_code(confidence, arrays.task_group_ptr)

        # The fixed point is over (truths, trust) jointly: with uniform
        # initial trust the first truth assignment equals majority vote,
        # so keying on codes alone would stop before the updated trust
        # is ever used.  Trust is rounded so the float iteration counts
        # as converged once successive vectors agree to 1e-8.
        codes, iterations, converged = iterate_truths(
            arrays.majority_codes(),
            step,
            max_iterations=_MAX_ITERATIONS,
            state_key=lambda c: c.tobytes() + np.round(trust, 8).tobytes(),
            label=self.method_name,
        )
        confidence = state["confidence"]
        return build_result(
            index,
            codes,
            trust[arrays.claim_worker],
            confidence,
            confidence,
            iterations=iterations,
            converged=converged,
            method=self.method_name,
            lean=lean,
        )
