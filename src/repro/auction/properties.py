"""Empirical verification of the mechanism's claimed properties.

Theorem 3 states IMC2 is computationally efficient, individually
rational, truthful, and ``2 e H_Ω``-approximate.  This module provides
the experimental counterparts used by the test suite and by Fig. 8:

- :func:`verify_individual_rationality` — every winner bidding its true
  cost gets non-negative utility (Lemma 2);
- :func:`verify_monotonicity` — a winner keeps winning when it lowers
  its bid (first half of Myerson's condition, Theorem 2);
- :func:`bid_utility_curve` / :func:`verify_truthfulness` — sweep one
  worker's declared bid and check no misreport beats truthful bidding
  (Lemma 3, the Fig. 8 experiment);
- :func:`approximation_bound` — the ``2 e H_Ω`` factor of Lemma 5 for a
  given instance.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .reverse_auction import AuctionOutcome, ReverseAuction
from .soac import SOACInstance

__all__ = [
    "BidUtilityPoint",
    "approximation_bound",
    "bid_utility_curve",
    "verify_individual_rationality",
    "verify_monotonicity",
    "verify_truthfulness",
]


@dataclass(frozen=True)
class BidUtilityPoint:
    """One point of a Fig. 8-style curve: declared bid, utility, won?"""

    bid: float
    utility: float
    won: bool
    payment: float


def verify_individual_rationality(
    instance: SOACInstance, outcome: AuctionOutcome
) -> bool:
    """Check ``p_i ≥ c_i`` for every winner (Lemma 2, with truthful bids)."""
    cost_by_id = dict(zip(instance.worker_ids, instance.costs))
    return all(
        outcome.payments[w] >= cost_by_id[w] - 1e-9 for w in outcome.winner_ids
    )


def bid_utility_curve(
    instance: SOACInstance,
    worker_id: str,
    bid_grid: Sequence[float],
    *,
    auction: ReverseAuction | None = None,
) -> list[BidUtilityPoint]:
    """Utility of one worker as a function of its declared bid.

    The worker's *cost* stays fixed at its true value while the declared
    bid sweeps ``bid_grid`` — exactly the manipulation the truthfulness
    property forbids from ever being profitable.  This regenerates the
    Fig. 8 curves.
    """
    auction = auction or ReverseAuction()
    worker_index = instance.worker_ids.index(worker_id)
    true_cost = float(instance.costs[worker_index])
    points = []
    for bid in bid_grid:
        outcome = auction.run(instance.with_bid(worker_index, float(bid)))
        won = worker_id in outcome.payments
        payment = outcome.payment_of(worker_id)
        utility = payment - true_cost if won else 0.0
        points.append(
            BidUtilityPoint(bid=float(bid), utility=utility, won=won, payment=payment)
        )
    return points


def verify_truthfulness(
    instance: SOACInstance,
    worker_id: str,
    bid_grid: Sequence[float],
    *,
    auction: ReverseAuction | None = None,
    tolerance: float = 1e-9,
) -> bool:
    """No bid in ``bid_grid`` may beat bidding the true cost (Lemma 3)."""
    auction = auction or ReverseAuction()
    worker_index = instance.worker_ids.index(worker_id)
    true_cost = float(instance.costs[worker_index])
    truthful_outcome = auction.run(instance.with_bid(worker_index, true_cost))
    truthful_utility = truthful_outcome.utility_of(worker_id, true_cost)
    curve = bid_utility_curve(instance, worker_id, bid_grid, auction=auction)
    return all(point.utility <= truthful_utility + tolerance for point in curve)


def verify_monotonicity(
    instance: SOACInstance,
    worker_id: str,
    *,
    lower_bids: Iterable[float] | None = None,
    auction: ReverseAuction | None = None,
) -> bool:
    """A winner at bid ``b_i`` must still win at any lower bid (Theorem 2).

    Vacuously true if the worker loses at its current bid.
    """
    auction = auction or ReverseAuction()
    worker_index = instance.worker_ids.index(worker_id)
    current_bid = float(instance.bids[worker_index])
    baseline = auction.run(instance)
    if worker_id not in baseline.payments:
        return True
    if lower_bids is None:
        lower_bids = np.linspace(0.0, current_bid, 5)
    for bid in lower_bids:
        if bid > current_bid:
            continue
        outcome = auction.run(instance.with_bid(worker_index, float(bid)))
        if worker_id not in outcome.payments:
            return False
    return True


def _harmonic(k: int) -> float:
    """H_k = 1 + 1/2 + ... + 1/k (H_0 = 0)."""
    return sum(1.0 / x for x in range(1, k + 1))


def approximation_bound(instance: SOACInstance) -> float:
    """The ``2 e H_Ω`` approximation factor of Lemma 5.

    ``Ω = (1/Δv) Σ_j Θ_j`` with ``Δv`` the minimum positive accuracy —
    the requirement mass measured in units of the smallest accuracy
    contribution.
    """
    positive = instance.accuracy[instance.accuracy > 0]
    if positive.size == 0:
        return math.inf
    delta_v = float(positive.min())
    omega = int(math.ceil(float(instance.requirements.sum()) / delta_v))
    return 2.0 * math.e * _harmonic(max(omega, 1))
