"""Scalar transcriptions of the paper's algorithms, kept as test oracles.

The product runs one array engine per algorithm: DATE, ED and NC on
:mod:`repro.core.engine`, the reverse auction on
:mod:`repro.auction.engine`.  The modules here are the per-element
Python loops those engines replaced — each equation transcribed line
by line over dict views of a :class:`~repro.core.indexing.DatasetIndex`
(:mod:`.indexing`) — and the differential suites pin engine == oracle:

- :mod:`.dependence` — step 1, pairwise copier posteriors (Eqs. 7-15),
  and the numpy pair-row scorer the compiled one replaced;
- :mod:`.independence` — step 2, greedy-order independence (Eq. 16),
  and the batched numpy kernel the compiled one replaced;
- :mod:`.accuracy` — step 3, value posteriors and accuracies
  (Eqs. 17-20);
- :mod:`.support` — support counts and truth selection (line 28,
  Eq. 21);
- :mod:`.date` — the Alg. 1 drivers for DATE, ED and NC and the
  table-shaped result assembler they report through;
- :mod:`.auction` — Alg. 2's greedy cover and critical payments, and
  the GA and GB baselines' selection loops;
- :mod:`.indexing` — the per-task, per-value and per-worker claim
  dicts, co-answering pairs, initial accuracies and majority vote the
  oracles read off an index's campaign;
- :mod:`.pairtables` — the numpy pair-table builder and slot-map
  scatter the compiled pair-table walk replaced;
- :mod:`.streaming` — the sub-campaign a task subset induces on an
  index, rebuilt as a dataset;
- :mod:`.datasets` — the scalar synthetic-world and copier generator
  loops that the block-drawing generator must match byte for byte.
"""

from .accuracy import (
    discounted_value_posteriors,
    update_accuracy_matrix,
    value_posteriors,
    worker_mean_accuracy,
)
from .auction import (
    greedy_cover,
    reference_auction,
    reference_greedy_accuracy,
    reference_greedy_bid,
    reference_payments,
)
from .date import (
    build_result,
    date_independence,
    date_reference,
    ed_independence,
    no_copier_reference,
    run_reference,
)
from .dependence import (
    classwise_score_pair_rows,
    compute_pairwise_dependence,
    directed_matrix,
    directed_probability,
    total_dependence,
)
from .independence import (
    IndependenceTable,
    batched_independence_flat,
    independence_probabilities,
    independence_table,
    order_value_group,
)
from .indexing import (
    claims_by_task,
    claims_by_worker,
    co_answering_pairs,
    initial_accuracy_matrix,
    majority_vote,
    shared_tasks,
    value_groups,
)
from .support import segment_first_argmax_numpy, select_truths, support_counts

__all__ = [
    "IndependenceTable",
    "batched_independence_flat",
    "build_result",
    "claims_by_task",
    "claims_by_worker",
    "classwise_score_pair_rows",
    "co_answering_pairs",
    "compute_pairwise_dependence",
    "date_independence",
    "date_reference",
    "directed_matrix",
    "directed_probability",
    "discounted_value_posteriors",
    "ed_independence",
    "greedy_cover",
    "independence_probabilities",
    "independence_table",
    "initial_accuracy_matrix",
    "majority_vote",
    "no_copier_reference",
    "order_value_group",
    "reference_auction",
    "reference_greedy_accuracy",
    "reference_greedy_bid",
    "reference_payments",
    "run_reference",
    "segment_first_argmax_numpy",
    "select_truths",
    "shared_tasks",
    "support_counts",
    "total_dependence",
    "update_accuracy_matrix",
    "value_groups",
    "value_posteriors",
    "worker_mean_accuracy",
]
