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
The computation is deterministic; the ``seed`` parameter is recorded in
the fingerprint and reserved for randomized restarts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..core.date import TruthDiscoveryResult, build_result, iterate_truths
from ..core.engine import dense_accuracy, posterior_table, support_table
from ..core.indexing import DatasetIndex, segment_first_argmax_code
from ..errors import ConfigurationError
from ..types import Dataset

__all__ = ["TruthFinder", "TruthFinderConfig"]


@dataclass(frozen=True)
class TruthFinderConfig:
    """TruthFinder hyperparameters (defaults follow the original paper)."""

    #: Initial worker trustworthiness ``t_0``.
    initial_trust: float = 0.9
    #: Damping factor ``γ`` of the logistic squashing the adjusted score.
    dampening: float = 0.3
    #: Weight ``ρ`` of the mutual-exclusion implication between
    #: competing values of one task.
    influence: float = 0.5
    #: Iteration cap of the trust/confidence fixed point.
    max_iterations: int = 50
    #: Trust is clamped into this open interval so ``ln(1 - t)`` and the
    #: logistic stay finite.
    trust_clamp: tuple[float, float] = (1e-6, 1.0 - 1e-6)

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_trust < 1.0:
            raise ConfigurationError(
                f"initial_trust must be in (0, 1), got {self.initial_trust}"
            )
        if self.dampening <= 0.0:
            raise ConfigurationError(
                f"dampening must be > 0, got {self.dampening}"
            )
        if not 0.0 <= self.influence <= 1.0:
            raise ConfigurationError(
                f"influence must be in [0, 1], got {self.influence}"
            )
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        lo, hi = self.trust_clamp
        if not 0.0 < lo < hi < 1.0:
            raise ConfigurationError(
                f"trust_clamp must satisfy 0 < lo < hi < 1, got {self.trust_clamp}"
            )

    def evolve(self, **changes: Any) -> "TruthFinderConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


class TruthFinder:
    """The TruthFinder fixed point over CSR claim arrays."""

    method_name = "TruthFinder"

    def __init__(self, config: TruthFinderConfig | None = None, *, seed: int = 0):
        self.config = config or TruthFinderConfig()
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
        n_workers = index.n_workers
        lo, hi = cfg.trust_clamp

        worker_counts = np.bincount(arrays.claim_worker, minlength=n_workers)
        trust = np.full(n_workers, cfg.initial_trust, dtype=np.float64)
        if warm_start is not None and warm_start.worker_accuracy:
            for i, worker_id in enumerate(index.worker_ids):
                trust[i] = warm_start.worker_accuracy.get(
                    worker_id, cfg.initial_trust
                )
        np.clip(trust, lo, hi, out=trust)

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
            adjusted = score - cfg.influence * (
                task_total[arrays.group_task] - score
            )
            # (3) damped logistic, written via tanh so large scores
            # never overflow exp().
            confidence = 0.5 * (1.0 + np.tanh(0.5 * cfg.dampening * adjusted))
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
                out=np.full(n_workers, cfg.initial_trust),
                where=worker_counts > 0,
            )
            np.clip(new_trust, lo, hi, out=trust)
            return segment_first_argmax_code(
                confidence,
                arrays.group_task,
                arrays.group_code,
                arrays.task_group_ptr,
            )

        # The fixed point is over (truths, trust) jointly: with uniform
        # initial trust the first truth assignment equals majority vote,
        # so keying on codes alone would stop before the updated trust
        # is ever used.  Trust is rounded so the float iteration counts
        # as converged once successive vectors agree to 1e-8.
        codes, iterations, converged = iterate_truths(
            arrays.majority_codes(),
            step,
            max_iterations=cfg.max_iterations,
            state_key=lambda c: c.tobytes() + np.round(trust, 8).tobytes(),
            label=self.method_name,
        )
        confidence = state["confidence"]
        return build_result(
            index,
            arrays.truth_values(codes),
            dense_accuracy(arrays, trust[arrays.claim_worker]),
            posterior_table(arrays, confidence),
            support_table(arrays, confidence),
            dependence={},
            iterations=iterations,
            converged=converged,
            method=self.method_name,
        )
