"""Scalar transcription of Alg. 2, kept as an oracle.

Per-worker loops: the selection phase evaluates every remaining
worker's effective accuracy unit cost each round, and the payment
phase reruns the whole greedy cover over ``W \\ {i}`` once per winner.
The product runs :mod:`repro.auction.engine` (batched selection,
lazy-greedy payment continuations); the differential suites pin the
two to identical outcomes, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.auction.reverse_auction import AuctionOutcome, ReverseAuction
from repro.auction.soac import COVERAGE_TOL, SOACInstance
from repro.errors import InfeasibleCoverageError

__all__ = ["greedy_cover", "reference_auction", "reference_payments"]


def greedy_cover(
    instance: SOACInstance,
    *,
    exclude: int | None = None,
) -> list[tuple[int, np.ndarray]]:
    """Run Alg. 2's selection loop; yield ``(worker, residual-before)`` pairs.

    ``exclude`` removes one worker from consideration (the payment
    phase's ``W \\ {i}``).  Raises :class:`InfeasibleCoverageError` when
    the remaining workers cannot cover the requirements.

    One capped-coverage buffer is reused across every marginal
    evaluation and residual update, so the only per-round allocation is
    the recorded residual snapshot.
    """
    residual = instance.requirements.astype(np.float64).copy()
    capped = np.empty_like(residual)
    accuracy = instance.accuracy
    bids = instance.bids
    chosen: list[tuple[int, np.ndarray]] = []
    selected: set[int] = set()
    while residual.sum() > COVERAGE_TOL:
        best_worker = -1
        best_ratio = np.inf
        for k in range(instance.n_workers):
            if k == exclude or k in selected:
                continue
            np.minimum(residual, accuracy[k], out=capped)
            marginal = capped.sum()
            if marginal <= COVERAGE_TOL:
                continue
            ratio = bids[k] / marginal
            if ratio < best_ratio or (ratio == best_ratio and k < best_worker):
                best_ratio = ratio
                best_worker = k
        if best_worker < 0:
            uncovered = instance.uncovered_tasks(sorted(selected))
            raise InfeasibleCoverageError(uncovered)
        chosen.append((best_worker, residual.copy()))
        selected.add(best_worker)
        np.minimum(residual, accuracy[best_worker], out=capped)
        residual -= capped
        np.maximum(residual, 0.0, out=residual)
    return chosen


def reference_payments(
    instance: SOACInstance,
    selection: list[tuple[int, np.ndarray]],
    *,
    monopoly_payment_factor: float = 1.0,
) -> tuple[dict[str, float], list[str]]:
    """Payment phase of Alg. 2 (lines 9-20), scalar transcription.

    Reruns the *entire* greedy cover over ``W \\ {i}`` once per winner
    — the O(W³·T) hot path the vectorized engine's prefix sharing
    eliminates.  Returns ``(payments, monopolists)``.
    """
    payments: dict[str, float] = {}
    monopolists: list[str] = []
    capped = np.empty(instance.n_tasks, dtype=np.float64)
    for i, _ in selection:
        worker_id = instance.worker_ids[i]
        try:
            replacement_run = greedy_cover(instance, exclude=i)
        except InfeasibleCoverageError:
            # Monopolist: no replacement set exists without i.
            payments[worker_id] = monopoly_payment_factor * float(
                instance.bids[i]
            )
            monopolists.append(worker_id)
            continue
        payment = 0.0
        accuracy_i = instance.accuracy[i]
        for k, residual in replacement_run:
            np.minimum(residual, accuracy_i, out=capped)
            own = capped.sum()
            np.minimum(residual, instance.accuracy[k], out=capped)
            other = capped.sum()
            if other <= COVERAGE_TOL:
                continue
            payment = max(payment, float(instance.bids[k]) * own / other)
        payments[worker_id] = float(payment)
    return payments, monopolists


def reference_auction(
    instance: SOACInstance, *, monopoly_payment_factor: float = 1.0
) -> AuctionOutcome:
    """:meth:`ReverseAuction.run` over the scalar phases above."""
    instance.check_feasible()

    # --- Winner selection phase (Alg. 2 lines 1-8) ---
    selection = greedy_cover(instance)
    winners = [worker for worker, _ in selection]
    # --- Payment determination phase (Alg. 2 lines 9-20) ---
    payments, monopolists = reference_payments(
        instance,
        selection,
        monopoly_payment_factor=monopoly_payment_factor,
    )

    total_payment = float(sum(payments.values()))
    return AuctionOutcome(
        method=ReverseAuction.method_name,
        winner_ids=tuple(instance.worker_ids[i] for i in winners),
        winner_indexes=tuple(winners),
        payments=payments,
        social_cost=instance.social_cost(winners),
        total_payment=total_payment,
        monopolists=tuple(monopolists),
    )
