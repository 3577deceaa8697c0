"""GB — the Greedy Bid auction baseline (Sec. VII-A).

GB repeatedly selects the *cheapest* worker that still contributes
positive marginal coverage (ties to the lower index), ignoring how much
accuracy the worker actually adds, until every requirement is covered.
It selects on the same :class:`~repro.auction.engine.GreedyCover` as
Alg. 2; only the pick differs.

Payment follows the Vickrey second-price idea [20]: the reference price
is the bid of the cheapest loser whose accuracy row sums above
``COVERAGE_TOL`` (on any task, whatever the final residual), and each
winner is paid the larger of its own bid and that price, or its own
bid if no such loser exists.  As with GA, the payment rule does not
affect the reproduced social-cost figures.
"""

from __future__ import annotations

import numpy as np

from ..auction.engine import GreedyCover
from ..auction.reverse_auction import AuctionOutcome
from ..auction.soac import COVERAGE_TOL, SOACInstance

__all__ = ["GreedyBid"]


class GreedyBid:
    """Cheapest-first greedy winner selection with Vickrey-style payment."""

    method_name = "GB"

    def run(self, instance: SOACInstance) -> AuctionOutcome:
        """Select by minimal bid among still-useful workers."""
        instance.check_feasible()
        cover = GreedyCover(instance)
        for useful in cover.rounds():
            # Bids are finite, so the first minimum is a useful worker.
            cover.apply(int(np.argmin(np.where(useful, instance.bids, np.inf))))
        winners = cover.selected
        losers = cover.eligible & (instance.accuracy.sum(axis=1) > COVERAGE_TOL)
        # Bids are non-negative, so with no such loser max(bid, 0.0) is the bid.
        reference = float(instance.bids[losers].min()) if losers.any() else 0.0
        payments = {
            instance.worker_ids[i]: max(float(instance.bids[i]), reference)
            for i in winners
        }
        return AuctionOutcome.from_selection(
            self.method_name, instance, winners, payments
        )
