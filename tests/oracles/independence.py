"""Scalar transcription of DATE step 2 (Eq. 16), kept as an oracle.

If worker ``i`` copied value ``v`` from someone, ``i``'s claim should
not count as independent support for ``v``.  Exactly enumerating every
dependence structure is exponential, so the paper orders the providers
of each value greedily and discounts each worker only against its
*predecessors* in the order:

    I_v^j(i) = Π_{i' before i} (1 - r · P(i → i' | D))          (Eq. 16)

Ordering (Sec. III-B): the first worker is the one with the highest
total dependence probability inside the group (so its likely copiers
get discounted against it); each subsequent pick is the remaining
worker with the maximal directed dependence on an already-selected
worker (Alg. 1 line 19).  The pseudocode's line 16 is OCR-ambiguous
(argmin); ``ordering="independent_first"`` provides that variant.

The ED baseline (:mod:`repro.baselines.enumerate_dependence`) replaces
this greedy prefix rule with explicit enumeration over co-providers.
The product runs :func:`repro.core.engine.independence_flat`, one
compiled C pass per group size, pinned to these loops by the
differential suites and byte for byte to
:func:`batched_independence_flat`, the batched numpy kernel it replaced.
"""

from __future__ import annotations

import numpy as np

from repro.core.dependence import DependencePosterior
from repro.core.engine import DependenceArrays
from repro.core.indexing import ClaimArrays, DatasetIndex

from .dependence import directed_probability, total_dependence
from .indexing import value_groups

__all__ = [
    "batched_independence_flat",
    "independence_probabilities",
    "independence_table",
    "order_value_group",
]

#: Independence maps: task index -> value -> {worker index: I_v^j(i)}.
IndependenceTable = list[dict[str, dict[int, float]]]

_ORDERINGS = ("dependent_first", "independent_first")


def order_value_group(
    group: tuple[int, ...],
    posteriors: dict[tuple[int, int], DependencePosterior],
    *,
    ordering: str = "dependent_first",
) -> list[int]:
    """Return the greedy processing order for one value group ``W_v^j``.

    Ties break on the worker index so a fixed dataset and seed always
    produce the same order.
    """
    if ordering not in _ORDERINGS:
        raise ValueError(f"ordering must be one of {_ORDERINGS}, got {ordering!r}")
    if len(group) <= 1:
        return list(group)

    totals = {
        i: sum(total_dependence(posteriors, i, other) for other in group if other != i)
        for i in group
    }
    if ordering == "dependent_first":
        first = max(group, key=lambda i: (totals[i], -i))
    else:
        first = min(group, key=lambda i: (totals[i], i))

    selected = [first]
    remaining = [i for i in group if i != first]
    while remaining:
        # Alg. 1 line 19: the remaining worker most likely to have copied
        # from someone already selected.
        def attachment(i: int) -> float:
            return max(directed_probability(posteriors, i, s) for s in selected)

        nxt = max(remaining, key=lambda i: (attachment(i), -i))
        selected.append(nxt)
        remaining.remove(nxt)
    return selected


_DISCOUNT_MODES = ("directed", "total")


def independence_probabilities(
    index: DatasetIndex,
    posteriors: dict[tuple[int, int], DependencePosterior],
    *,
    copy_prob_r: float,
    ordering: str = "dependent_first",
    discount_mode: str = "directed",
) -> IndependenceTable:
    """Compute ``I_v^j(i)`` for every task, value, and providing worker.

    A worker that is the only provider of a value (or the first in its
    group's order) has independence probability 1; later workers are
    discounted by Eq. 16 against each predecessor.

    ``discount_mode`` selects the dependence probability in the product:

    - ``"directed"`` (Eq. 16 as written): ``P(i → i' | D)`` — only the
      probability that *i copied from* the predecessor;
    - ``"total"``: ``P(i → i') + P(i' → i)`` — either direction.  When a
      copier reproduces its source verbatim the two workers' data is
      identical and the direction is unidentifiable (each direction's
      posterior caps near 0.5), so the directed discount can never
      exceed ``1 - r/2``; the total mode discounts the pair's shared
      value to a single effective vote, which is what recovering the
      Table 1 example requires (DESIGN.md §4).
    """
    if not 0.0 < copy_prob_r < 1.0:
        raise ValueError(f"copy_prob_r must be in (0, 1), got {copy_prob_r}")
    if discount_mode not in _DISCOUNT_MODES:
        raise ValueError(
            f"discount_mode must be one of {_DISCOUNT_MODES}, got {discount_mode!r}"
        )
    table: IndependenceTable = []
    for groups in value_groups(index):
        per_value: dict[str, dict[int, float]] = {}
        for value, group in groups.items():
            order = order_value_group(group, posteriors, ordering=ordering)
            scores: dict[int, float] = {}
            for position, worker in enumerate(order):
                independence = 1.0
                for predecessor in order[:position]:
                    if discount_mode == "directed":
                        dep = directed_probability(posteriors, worker, predecessor)
                    else:
                        dep = total_dependence(posteriors, worker, predecessor)
                    independence *= 1.0 - copy_prob_r * dep
                scores[worker] = independence
            per_value[value] = scores
        table.append(per_value)
    return table


def independence_table(
    arrays: ClaimArrays, indep: np.ndarray
) -> list[dict[str, dict[int, float]]]:
    """Flat per-claim independence -> the scalar ``IndependenceTable``."""
    table: list[dict[str, dict[int, float]]] = []
    for j in range(arrays.index.n_tasks):
        g0, g1 = int(arrays.task_group_ptr[j]), int(arrays.task_group_ptr[j + 1])
        per_value: dict[str, dict[int, float]] = {}
        for g in range(g0, g1):
            c0, c1 = int(arrays.group_ptr[g]), int(arrays.group_ptr[g + 1])
            per_value[arrays.group_values[g]] = {
                int(arrays.claim_worker[c]): float(indep[c]) for c in range(c0, c1)
            }
        table.append(per_value)
    return table


def batched_independence_flat(
    arrays: ClaimArrays,
    dependence: DependenceArrays,
    *,
    copy_prob_r: float,
    ordering: str = "dependent_first",
    discount_mode: str = "directed",
) -> np.ndarray:
    """Step 2 (Eq. 16) as the batched numpy kernel, one value per claim.

    This was :func:`repro.core.engine.independence_flat` before the
    compiled kernel replaced it; the differential suite pins the C
    kernel's output to this function byte for byte.

    A copied claim should not count as independent support, so the
    providers of each value are ordered greedily and each is discounted
    only against its predecessors,
    ``I_v^j(i) = Π_{i' before i} (1 - r · P(i → i' | D))``.  The first
    worker has the highest total dependence inside the group
    (``ordering="dependent_first"``, the paper text; the lowest for
    ``"independent_first"``, the pseudocode variant); each next pick is
    the remaining worker with the largest directed dependence on an
    already-selected one (Alg. 1 line 19).  ``discount_mode="total"``
    uses ``P(i → i') + P(i' → i)`` in the product: a verbatim copier's
    direction is unidentifiable (each direction caps near 0.5), and
    only the total discounts the pair to one effective vote (DESIGN.md
    §4).

    The greedy ordering inside each multi-provider value group is
    inherently sequential in the group *size*, but not across groups:
    all groups of one size run batched (``(G, m, m)`` tensors taken
    through the precomputed
    :attr:`~repro.core.indexing.ClaimArrays.multi_group_slots`), so the
    Python loop is one step per distinct group size — not per group.
    Single-provider groups keep the definitional ``I = 1`` without
    being visited at all.

    Ties break on the worker index, as in the scalar ordering oracle
    (tests/oracles/independence.py): groups store workers ascending,
    and ``argmax``/``argmin`` pick the first (smallest-index) element.
    """
    if not 0.0 < copy_prob_r < 1.0:
        raise ValueError(f"copy_prob_r must be in (0, 1), got {copy_prob_r}")
    if ordering not in ("dependent_first", "independent_first"):
        raise ValueError(
            "ordering must be 'dependent_first' or 'independent_first', "
            f"got {ordering!r}"
        )
    if discount_mode not in ("directed", "total"):
        raise ValueError(
            f"discount_mode must be 'directed' or 'total', got {discount_mode!r}"
        )
    r = copy_prob_r
    indep = np.ones(arrays.n_claims, dtype=np.float64)
    buckets = arrays.multi_group_buckets
    if not buckets:
        return indep

    # O(pairs) slot gather — the dense n_workers² matrix is never
    # materialized, so dependence memory scales with co-answering pairs.
    values = dependence.slot_values()
    for (m, claim_idx), slots in zip(buckets, arrays.multi_group_slots):
        n_groups = len(claim_idx)
        sub = values.take(slots)
        total_sub = np.add(
            sub, sub.transpose(0, 2, 1), out=np.empty((n_groups, m, m))
        )
        totals = np.sum(total_sub, axis=2, out=np.empty((n_groups, m)))
        if ordering == "dependent_first":
            first = np.argmax(totals, axis=1)
        else:
            first = np.argmin(totals, axis=1)

        rows = np.arange(n_groups)
        order = np.empty((n_groups, m), dtype=np.int64)
        order[:, 0] = first
        selected = np.empty((n_groups, m), dtype=bool)
        selected[:] = False
        selected[rows, first] = True
        # Best directed attachment to any already-selected member
        # (Alg. 1 line 19), grown one selection at a time for every
        # group of this size simultaneously.
        attachment = np.empty((n_groups, m))
        attachment[:] = sub[rows, :, first]
        masked = np.empty((n_groups, m))
        for position in range(1, m):
            np.copyto(masked, attachment)
            masked[selected] = -np.inf
            nxt = np.argmax(masked, axis=1)
            order[:, position] = nxt
            selected[rows, nxt] = True
            np.maximum(attachment, sub[rows, :, nxt], out=attachment)

        discount_source = sub if discount_mode == "directed" else total_sub
        ordered = discount_source[
            rows[:, None, None], order[:, :, None], order[:, None, :]
        ]
        # score[k] = prod over predecessors l < k of (1 - r * dep[k, l]);
        # non-predecessor entries contribute a factor of exactly 1.
        factors = np.multiply(ordered, -r, out=np.empty((n_groups, m, m)))
        np.add(factors, 1.0, out=factors)
        factors[:, ~np.tri(m, k=-1, dtype=bool)] = 1.0
        flat_positions = np.take_along_axis(claim_idx, order, axis=1)
        indep[flat_positions] = np.prod(factors, axis=2)
    return indep
