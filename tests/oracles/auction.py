"""Scalar transcriptions of Alg. 2 and the GA / GB baselines, kept as oracles.

Per-worker loops: the selection phase evaluates every remaining
worker's effective accuracy unit cost each round, and the payment
phase reruns the whole greedy cover over ``W \\ {i}`` once per winner.
GA and GB run the same per-worker loop with their own picks (largest
marginal; lowest bid).  The product runs :mod:`repro.auction.engine`
(one batched greedy cover for all three, lazy-greedy payment
continuations); the differential suites pin each pair to identical
outcomes, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.auction.reverse_auction import AuctionOutcome, ReverseAuction
from repro.auction.soac import COVERAGE_TOL, SOACInstance
from repro.errors import InfeasibleCoverageError

__all__ = [
    "greedy_cover",
    "reference_auction",
    "reference_greedy_accuracy",
    "reference_greedy_bid",
    "reference_payments",
]


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


def reference_greedy_accuracy(instance: SOACInstance) -> AuctionOutcome:
    """:meth:`GreedyAccuracy.run` as a per-worker scalar loop."""
    instance.check_feasible()
    residual = instance.requirements.astype(np.float64).copy()
    selected: list[int] = []
    chosen: set[int] = set()
    while residual.sum() > COVERAGE_TOL:
        best_worker = -1
        best_coverage = 0.0
        for k in range(instance.n_workers):
            if k in chosen:
                continue
            marginal = float(np.minimum(residual, instance.accuracy[k]).sum())
            if marginal <= COVERAGE_TOL:
                continue
            better = marginal > best_coverage
            tie = (
                marginal == best_coverage
                and best_worker >= 0
                and (
                    instance.bids[k] < instance.bids[best_worker]
                    or (
                        instance.bids[k] == instance.bids[best_worker]
                        and k < best_worker
                    )
                )
            )
            if better or tie:
                best_coverage = marginal
                best_worker = k
        if best_worker < 0:
            raise InfeasibleCoverageError(instance.uncovered_tasks(chosen))
        selected.append(best_worker)
        chosen.add(best_worker)
        residual = np.maximum(
            residual - np.minimum(residual, instance.accuracy[best_worker]), 0.0
        )
    payments = {
        instance.worker_ids[i]: float(instance.bids[i]) for i in selected
    }
    return AuctionOutcome(
        method="GA",
        winner_ids=tuple(instance.worker_ids[i] for i in selected),
        winner_indexes=tuple(selected),
        payments=payments,
        social_cost=instance.social_cost(selected),
        total_payment=float(sum(payments.values())),
    )


def reference_greedy_bid(instance: SOACInstance) -> AuctionOutcome:
    """:meth:`GreedyBid.run` as a per-worker scalar loop."""
    instance.check_feasible()
    residual = instance.requirements.astype(np.float64).copy()
    selected: list[int] = []
    chosen: set[int] = set()
    while residual.sum() > COVERAGE_TOL:
        best_worker = -1
        best_bid = np.inf
        for k in range(instance.n_workers):
            if k in chosen:
                continue
            marginal = float(np.minimum(residual, instance.accuracy[k]).sum())
            if marginal <= COVERAGE_TOL:
                continue
            if instance.bids[k] < best_bid or (
                instance.bids[k] == best_bid and k < best_worker
            ):
                best_bid = float(instance.bids[k])
                best_worker = k
        if best_worker < 0:
            raise InfeasibleCoverageError(instance.uncovered_tasks(chosen))
        selected.append(best_worker)
        chosen.add(best_worker)
        residual = np.maximum(
            residual - np.minimum(residual, instance.accuracy[best_worker]), 0.0
        )

    # Vickrey-style uniform reference price: the cheapest loser that
    # could still have been useful for some task.
    losers = [
        k
        for k in range(instance.n_workers)
        if k not in chosen and float(instance.accuracy[k].sum()) > COVERAGE_TOL
    ]
    reference = min((float(instance.bids[k]) for k in losers), default=None)
    payments = {}
    for i in selected:
        own_bid = float(instance.bids[i])
        payments[instance.worker_ids[i]] = (
            max(own_bid, reference) if reference is not None else own_bid
        )
    return AuctionOutcome(
        method="GB",
        winner_ids=tuple(instance.worker_ids[i] for i in selected),
        winner_indexes=tuple(selected),
        payments=payments,
        social_cost=instance.social_cost(selected),
        total_payment=float(sum(payments.values())),
    )
