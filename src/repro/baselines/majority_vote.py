"""MV — the Majority Voting baseline (Sec. VII-A).

The truth of each task is the value supported by the most workers,
with lexicographic tie-breaking for determinism.  MV treats every
worker as equally reliable, which is exactly the weakness the paper's
Table 1 example exploits: two copiers plus their source outvote a
single correct worker.

MV still reports an accuracy matrix (each worker's agreement rate with
the majority answer) so it can feed the auction stage in ablations,
and a confidence per task (the winning vote share).
"""

from __future__ import annotations

import numpy as np

from ..core.date import TruthDiscoveryResult, build_result
from ..core.indexing import DatasetIndex
from ..types import Dataset

__all__ = ["MajorityVote"]


class MajorityVote:
    """Majority voting with agreement-rate accuracies."""

    method_name = "MV"

    def run(
        self,
        dataset: Dataset | None,
        *,
        index: DatasetIndex | None = None,
        warm_start: TruthDiscoveryResult | None = None,
        lean: bool = False,
    ) -> TruthDiscoveryResult:
        """Vote once and derive agreement-based worker accuracies.

        Runs entirely on the integer-coded claim arrays: the vote, the
        vote-share posteriors, and the per-worker agreement rates are
        all segment reductions over value groups / workers.
        ``warm_start`` is accepted and ignored: a one-shot vote has
        nothing to warm.
        """
        index = index or DatasetIndex(dataset)
        arrays = index.arrays
        truth_codes = arrays.majority_codes()

        # Vote shares are the per-value "posteriors", vote counts the
        # support.
        counts = arrays.group_size.astype(np.float64)
        task_totals = np.bincount(
            arrays.claim_task, minlength=index.n_tasks
        ).astype(np.float64)
        shares = np.divide(
            counts,
            task_totals[arrays.group_task],
            out=np.zeros_like(counts),
            where=task_totals[arrays.group_task] > 0,
        )

        # Accuracy: each worker's agreement rate with the majority
        # answers, broadcast over its answered tasks.
        agrees = (
            arrays.claim_code == truth_codes[arrays.claim_task]
        ).astype(np.float64)
        hits = np.bincount(
            arrays.claim_worker, weights=agrees, minlength=index.n_workers
        )
        answered = np.bincount(arrays.claim_worker, minlength=index.n_workers)
        agreement = np.divide(
            hits, answered, out=np.zeros(index.n_workers), where=answered > 0
        )

        return build_result(
            index,
            truth_codes,
            agreement[arrays.claim_worker],
            shares,
            counts,
            iterations=1,
            converged=True,
            method=self.method_name,
            lean=lean,
        )
