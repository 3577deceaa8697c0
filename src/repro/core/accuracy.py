"""Step 3 of DATE (part 1): value posteriors and worker accuracies.

For one task ``t_j`` with claim set ``D_j``, the likelihood of the data
given that candidate value ``v`` is true (Eq. 18, generalized by
Eq. 23) is

    P(D_j | v true) = Π_{i ∈ W_v} A_i · Π_{i ∉ W_v} (1 - A_i) · q_j(v_i | v)

where ``q_j(v_i | v)`` is the false-value model's probability of value
``v_i`` given that ``v`` is the truth (``1/num_j`` under the uniform
assumption, recovering Eq. 18 exactly).  With a uniform prior over
values (the paper's β), Bayes' rule gives the posterior of Eq. 20.

The worker accuracy (Eq. 17) is the average posterior probability of
the values the worker provided.  The matrix ``A`` is per (worker, task);
see DESIGN.md §4 for the two supported granularities:

- ``"worker"`` (default): one accuracy per worker — the mean posterior
  over its answered tasks, broadcast to those tasks;
- ``"task"``: the per-task posterior of the worker's claim.

Workers keep 0 accuracy on tasks they did not answer (no coverage in
the auction).  The kernels live in :mod:`repro.core.engine`
(:func:`~repro.core.engine.plain_posterior_groups`,
:func:`~repro.core.engine.discounted_posterior_groups`,
:func:`~repro.core.engine.accuracy_flat`); this module keeps the
per-worker reduction the result bundle reports.
"""

from __future__ import annotations

import numpy as np

from .indexing import ClaimArrays

__all__ = ["claim_mean_by_worker"]


def claim_mean_by_worker(arrays: ClaimArrays, claim_values: np.ndarray) -> np.ndarray:
    """Per-worker mean of per-claim values, summed in claim order.

    The one reduction behind both a result's ``worker_accuracy`` and the
    reputations the streaming service serves, so the two agree bit for
    bit after a refresh.
    """
    n_workers = arrays.n_workers
    sums = np.bincount(arrays.claim_worker, weights=claim_values, minlength=n_workers)
    counts = np.bincount(arrays.claim_worker, minlength=n_workers)
    return np.divide(sums, counts, out=np.zeros(n_workers), where=counts > 0)
