"""GA — the Greedy Accuracy auction baseline (Sec. VII-A).

GA repeatedly selects the worker with the highest *marginal accuracy
coverage* ``Σ_j min(Θ'_j, A_k^j)`` over the residual requirements,
ignoring prices except to break ties (lower bid, then lower index),
until every task's requirement is covered.  It selects on the same
:class:`~repro.auction.engine.GreedyCover` as Alg. 2; only the pick
differs.

Payment: the paper says GA "pays the critical value to the winners",
but GA's selection never reads bids, so no finite Myerson critical
value exists; we pay the declared bid (first-price).  This choice is
invisible to every reproduced figure — Fig. 6 compares *social cost*,
which depends only on the selected set (see DESIGN.md §4).
"""

from __future__ import annotations

import numpy as np

from ..auction.engine import GreedyCover
from ..auction.reverse_auction import AuctionOutcome
from ..auction.soac import SOACInstance

__all__ = ["GreedyAccuracy"]


class GreedyAccuracy:
    """Accuracy-first greedy winner selection."""

    method_name = "GA"

    def run(self, instance: SOACInstance) -> AuctionOutcome:
        """Select by maximal marginal coverage; pay declared bids."""
        instance.check_feasible()
        cover = GreedyCover(instance)
        for useful in cover.rounds():
            marginals = np.where(useful, cover.scores, -np.inf)
            tied = np.flatnonzero(marginals == marginals.max())
            # argmin's first minimum: lower bid, then lower index.
            cover.apply(int(tied[np.argmin(instance.bids[tied])]))
        winners = cover.selected
        payments = {instance.worker_ids[i]: float(instance.bids[i]) for i in winners}
        return AuctionOutcome.from_selection(
            self.method_name, instance, winners, payments
        )
