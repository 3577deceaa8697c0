"""IMC2 — Incentive Mechanism for Crowdsourcing with Copiers.

The two-stage mechanism ``M = (e, f, p)`` of Sec. II-A:

1. **Truth discovery stage** — run :class:`~repro.core.date.DATE` (the
   truth estimation function ``e``), producing the estimated truths
   ``et`` and the accuracy matrix ``A``; :meth:`IMC2.run` also takes
   this stage's result as a value (``truth=``);
2. **Reverse auction stage** — build the SOAC instance from ``A`` and
   the sealed bids, then run
   :class:`~repro.auction.reverse_auction.ReverseAuction` (the winner
   selection ``f`` and payment ``p`` functions).

:class:`IMC2Outcome` additionally carries the welfare accounting of
Eqs. 1-3: per-worker utilities, the platform utility
``u_0 = V(S) - Σ p_i``, and the social welfare ``V(S) - Σ c_i``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..auction.reverse_auction import AuctionOutcome, ReverseAuction
from ..auction.soac import SOACInstance, check_requirement_cap
from ..core.config import DateConfig
from ..core.date import DATE, TruthDiscoveryResult
from ..types import Bid, Dataset

__all__ = ["IMC2", "IMC2Outcome"]


@dataclass(frozen=True, eq=False)
class IMC2Outcome:
    """Everything IMC2 produces for one campaign.

    Attributes
    ----------
    truth:
        Stage-1 output: estimated truths, accuracy matrix, dependence.
    instance:
        The SOAC instance handed from stage 1 to stage 2.
    auction:
        Stage-2 output: winners and payments.
    worker_utilities:
        ``u_i = p_i - c_i`` for winners, 0 for losers (Eq. 1).
    platform_utility:
        ``u_0 = V(S) - Σ p_i`` (Eq. 2).
    social_welfare:
        ``V(S) - Σ_{i∈S} c_i`` (Eq. 3).
    """

    truth: TruthDiscoveryResult
    instance: SOACInstance
    auction: AuctionOutcome
    worker_utilities: dict[str, float]
    platform_utility: float
    social_welfare: float

    @property
    def estimated_truths(self) -> dict[str, str]:
        """``task_id -> estimated truth`` from stage 1."""
        return self.truth.truths

    @property
    def winners(self) -> tuple[str, ...]:
        """Winner ids in selection order."""
        return self.auction.winner_ids


class IMC2:
    """The full two-stage mechanism, ready to run on a dataset.

    Parameters
    ----------
    date_config:
        Hyperparameters of the DATE run that stage 1 performs when
        :meth:`run` is not handed a ``truth``.
    auction:
        Override stage 2 (defaults to the paper's reverse auction);
        pass ``ReverseAuction(monopoly_payment_factor=…)`` for another
        monopolist payment factor.
    requirement_cap:
        When set (in ``(0, 1]``), cap each task's requirement at this
        fraction of its total available accuracy before the auction
        (see :meth:`SOACInstance.with_capped_requirements`); keeps
        sparse campaigns feasible.  ``None`` (default) uses the raw
        requirements and lets infeasible instances raise.  Checked here,
        so a bad cap fails before any stage runs.
    """

    def __init__(
        self,
        date_config: DateConfig | None = None,
        *,
        auction: ReverseAuction | None = None,
        requirement_cap: float | None = None,
    ):
        if requirement_cap is not None:
            check_requirement_cap(requirement_cap)
        self.date_config = date_config
        self.auction = auction or ReverseAuction()
        self.requirement_cap = requirement_cap

    def run(
        self,
        dataset: Dataset,
        *,
        truth: TruthDiscoveryResult | None = None,
        bids: Sequence[Bid] | None = None,
        requirements: Mapping[str, float] | None = None,
    ) -> IMC2Outcome:
        """Execute both stages and assemble the welfare accounting.

        ``truth`` is a stage-1 result already computed on ``dataset``
        (any zoo member's, or one result reused across bid vectors —
        stage 1 does not read the bids); ``None`` runs DATE with
        ``date_config``.  ``bids`` defaults to truthful bids (each
        worker bids its private cost on exactly the tasks it answered);
        ``requirements`` overrides per-task accuracy requirements
        ``Θ_j``.
        """
        if truth is None:
            truth = DATE(self.date_config).run(dataset)
        instance = SOACInstance.from_truth_discovery(
            dataset, truth, bids=bids, requirements=requirements
        )
        if self.requirement_cap is not None:
            instance = instance.with_capped_requirements(self.requirement_cap)
        auction = self.auction.run(instance)

        cost_by_id = dict(zip(instance.worker_ids, instance.costs))
        worker_utilities = {
            worker_id: auction.utility_of(worker_id, cost_by_id[worker_id])
            for worker_id in instance.worker_ids
        }
        value = instance.platform_value(auction.winner_indexes)
        platform_utility = value - auction.total_payment
        social_welfare = value - auction.social_cost
        return IMC2Outcome(
            truth=truth,
            instance=instance,
            auction=auction,
            worker_utilities=worker_utilities,
            platform_utility=platform_utility,
            social_welfare=social_welfare,
        )
