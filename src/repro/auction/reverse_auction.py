"""Alg. 2 — the reverse auction: winner selection + critical payments.

Winner selection phase: repeatedly pick the worker minimizing the
*effective accuracy unit cost*

    b_k / Σ_j min(Θ'_j, A_k^j)

over the residual requirement vector ``Θ'``, subtract the worker's
capped coverage from ``Θ'``, and stop when every requirement reaches 0.

Payment determination phase: for each winner ``i``, rerun the greedy
selection over ``W \\ {i}``; at every step that selects a replacement
``i_k`` under residual ``Θ''``, worker ``i`` could have taken that slot
at any price up to

    b_{i_k} · Σ_j min(Θ''_j, A_i^j) / Σ_j min(Θ''_j, A_{i_k}^j)

and the payment is the maximum such price (the Myerson critical value;
Lemmas 2-3 prove individual rationality and truthfulness from exactly
this structure).

Degenerate case: if ``W \\ {i}`` cannot cover the requirements, worker
``i`` is a *monopolist* and its critical value is unbounded; the
auction then pays ``monopoly_payment_factor · b_i`` and records the
worker in :attr:`AuctionOutcome.monopolists` (see DESIGN.md §4).

:mod:`repro.auction.engine` executes both phases (fleet-wide batched
selection, lazy-greedy payment continuations; DESIGN.md §10).  The
scalar per-worker transcription it is pinned against lives in
tests/oracles/auction.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from .soac import SOACInstance

__all__ = ["AuctionOutcome", "ReverseAuction"]


@dataclass(frozen=True, eq=False)
class AuctionOutcome:
    """Result of one auction run.

    ``winner_ids`` preserves selection order.  ``payments`` maps every
    *winner* to its payment (losers are paid 0 and omitted).
    ``social_cost`` is ``Σ c_i`` over winners — the SOAC objective the
    paper plots in Fig. 6.
    """

    method: str
    winner_ids: tuple[str, ...]
    winner_indexes: tuple[int, ...]
    payments: dict[str, float]
    social_cost: float
    total_payment: float
    monopolists: tuple[str, ...] = ()

    @property
    def n_winners(self) -> int:
        return len(self.winner_ids)

    def payment_of(self, worker_id: str) -> float:
        """Payment to a worker (0 for losers)."""
        return self.payments.get(worker_id, 0.0)

    def utility_of(self, worker_id: str, cost: float) -> float:
        """``u_i = p_i - c_i`` for winners, 0 for losers (Eq. 1)."""
        if worker_id not in self.payments:
            return 0.0
        return self.payments[worker_id] - cost


class ReverseAuction:
    """IMC2's auction stage (Alg. 2).

    ``monopoly_payment_factor`` is the stage's one knob: the payment
    multiplier for *monopolist* winners — workers without whom the
    requirements cannot be covered, whose critical value is unbounded
    (DESIGN.md §4).  It must be finite and >= 1 so a winner is never
    paid below its bid, nor an infinite payment.
    """

    method_name = "RA"

    def __init__(self, *, monopoly_payment_factor: float = 1.0):
        # Written so NaN fails too: every comparison with it is False.
        if not 1.0 <= monopoly_payment_factor < math.inf:
            raise ConfigurationError(
                "monopoly_payment_factor must be finite and >= 1 (a winner "
                "must never be paid below its bid), got "
                f"{monopoly_payment_factor!r}"
            )
        self.monopoly_payment_factor = monopoly_payment_factor

    def run(self, instance: SOACInstance) -> AuctionOutcome:
        """Select winners and compute critical payments."""
        from .engine import run_auction

        instance.check_feasible()
        winners, payments, monopolists = run_auction(
            instance,
            monopoly_payment_factor=self.monopoly_payment_factor,
        )
        total_payment = float(sum(payments.values()))
        return AuctionOutcome(
            method=self.method_name,
            winner_ids=tuple(instance.worker_ids[i] for i in winners),
            winner_indexes=tuple(winners),
            payments=payments,
            social_cost=instance.social_cost(winners),
            total_payment=total_payment,
            monopolists=tuple(monopolists),
        )
