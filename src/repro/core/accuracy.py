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
dense-matrix reduction the result bundle reports.
"""

from __future__ import annotations

import numpy as np

from .indexing import DatasetIndex

__all__ = ["worker_mean_accuracy"]


def worker_mean_accuracy(index: DatasetIndex, accuracy: np.ndarray) -> np.ndarray:
    """Per-worker mean accuracy over answered tasks (0 for idle workers)."""
    means = np.zeros(index.n_workers, dtype=np.float64)
    for i, claims in enumerate(index.claims_by_worker):
        if claims:
            means[i] = float(np.mean([accuracy[i, j] for j in claims]))
    return means
