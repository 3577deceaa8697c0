"""Latent credibility analysis (SimpleLCA) via EM.

Pasternack & Roth's *simplest* latent credibility model: each worker
``i`` has one honesty parameter ``h_i``; conditioned on the truth of a
task being value ``v``, a claim asserting ``v`` has probability
``h_i`` and a claim asserting anything else ``(1 - h_i) / d_j`` (the
mass spread over the task's ``d_j`` alternative observed values).

EM over :class:`~repro.core.indexing.ClaimArrays`:

- **E-step**: with a uniform prior over a task's observed values, the
  posterior of value ``v`` is the segment softmax of
  ``Σ_{claims of v} [ln h_i - ln((1 - h_i) / d_j)]`` — the constant
  "everyone pays the penalty term" part cancels inside the softmax, so
  each iteration is one ``bincount`` over claim groups;
- **M-step**: ``h_i`` becomes the mean posterior of worker ``i``'s
  claims (clamped away from {0, 1} so the logs stay finite).

Truths are the per-task posterior argmax (ties to the smallest value
code).  Deterministic from its uniform-honesty initialization; ``seed``
is recorded in the fingerprint and reserved for randomized restarts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..core.date import TruthDiscoveryResult, build_result, iterate_truths
from ..core.engine import _segment_softmax, dense_accuracy, posterior_table, support_table
from ..core.indexing import DatasetIndex, segment_first_argmax_code
from ..errors import ConfigurationError
from ..types import Dataset

__all__ = ["LatentCredibilityAnalysis", "LcaConfig"]


@dataclass(frozen=True)
class LcaConfig:
    """SimpleLCA hyperparameters."""

    #: Initial worker honesty ``h_0``.
    initial_honesty: float = 0.8
    #: Iteration cap of the EM loop.
    max_iterations: int = 100
    #: Honesty is clamped into this open interval so ``ln h`` and
    #: ``ln(1 - h)`` stay finite.
    honesty_clamp: tuple[float, float] = (1e-4, 1.0 - 1e-4)

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_honesty < 1.0:
            raise ConfigurationError(
                f"initial_honesty must be in (0, 1), got {self.initial_honesty}"
            )
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        lo, hi = self.honesty_clamp
        if not 0.0 < lo < hi < 1.0:
            raise ConfigurationError(
                "honesty_clamp must satisfy 0 < lo < hi < 1, "
                f"got {self.honesty_clamp}"
            )

    def evolve(self, **changes: Any) -> "LcaConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


class LatentCredibilityAnalysis:
    """SimpleLCA EM over CSR claim arrays."""

    method_name = "LCA"

    def __init__(self, config: LcaConfig | None = None, *, seed: int = 0):
        self.config = config or LcaConfig()
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
        lo, hi = cfg.honesty_clamp

        worker_counts = np.bincount(arrays.claim_worker, minlength=n_workers)
        honesty = np.full(n_workers, cfg.initial_honesty, dtype=np.float64)
        if warm_start is not None and warm_start.worker_accuracy:
            for i, worker_id in enumerate(index.worker_ids):
                honesty[i] = warm_start.worker_accuracy.get(
                    worker_id, cfg.initial_honesty
                )
        np.clip(honesty, lo, hi, out=honesty)

        # d_j: alternative observed values per task (>= 1 so the
        # penalty log stays finite; a one-value task has no competitor
        # and its softmax is 1 regardless).
        groups_per_task = (
            arrays.task_group_ptr[1:] - arrays.task_group_ptr[:-1]
        )
        log_alternatives = np.log(np.maximum(groups_per_task - 1, 1).astype(np.float64))

        state: dict[str, np.ndarray] = {"posterior": np.zeros(arrays.n_groups)}

        def step(codes: np.ndarray) -> np.ndarray:
            # E-step: per-claim log odds of "this claim is the truth"
            # against the spread-out false mass.
            h = honesty[arrays.claim_worker]
            odds = (
                np.log(h)
                - np.log1p(-h)
                + log_alternatives[arrays.claim_task]
            )
            scores = np.bincount(
                arrays.claim_group, weights=odds, minlength=arrays.n_groups
            )
            posterior = _segment_softmax(
                scores, arrays.group_task, arrays.task_group_ptr
            )
            state["posterior"] = posterior
            # M-step: honesty = mean claim posterior per worker.
            sums = np.bincount(
                arrays.claim_worker,
                weights=posterior[arrays.claim_group],
                minlength=n_workers,
            )
            new_honesty = np.divide(
                sums,
                worker_counts,
                out=np.full(n_workers, cfg.initial_honesty),
                where=worker_counts > 0,
            )
            np.clip(new_honesty, lo, hi, out=honesty)
            return segment_first_argmax_code(
                posterior,
                arrays.group_task,
                arrays.group_code,
                arrays.task_group_ptr,
            )

        # Key the fixed point on (truths, honesty) jointly — with
        # uniform initial honesty the first E-step reproduces majority
        # vote, and codes alone would declare convergence before the
        # M-step's refined honesty ever feeds back.  Honesty is rounded
        # so the EM counts as converged at 1e-8 agreement.
        codes, iterations, converged = iterate_truths(
            arrays.majority_codes(),
            step,
            max_iterations=cfg.max_iterations,
            state_key=lambda c: c.tobytes() + np.round(honesty, 8).tobytes(),
            label=self.method_name,
        )
        posterior = state["posterior"]
        return build_result(
            index,
            arrays.truth_values(codes),
            dense_accuracy(arrays, honesty[arrays.claim_worker]),
            posterior_table(arrays, posterior),
            support_table(arrays, posterior),
            dependence={},
            iterations=iterations,
            converged=converged,
            method=self.method_name,
        )
