"""Unit tests for Alg. 2 (repro.auction.reverse_auction)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ConfigurationError,
    InfeasibleCoverageError,
    ReverseAuction,
    SOACInstance,
)

from tests.oracles import greedy_cover


def instance_from(
    accuracy, bids, requirements, costs=None, values=None
) -> SOACInstance:
    accuracy = np.asarray(accuracy, dtype=float)
    n, m = accuracy.shape
    bids = np.asarray(bids, dtype=float)
    return SOACInstance(
        worker_ids=tuple(f"w{i}" for i in range(n)),
        task_ids=tuple(f"t{j}" for j in range(m)),
        requirements=np.asarray(requirements, dtype=float),
        accuracy=accuracy,
        bids=bids,
        costs=np.asarray(costs, dtype=float) if costs is not None else bids.copy(),
        task_values=np.asarray(values, dtype=float)
        if values is not None
        else np.full(m, 5.0),
    )


class TestGreedyCover:
    def test_prefers_effective_unit_cost(self, soac_small):
        # w3 covers 3 units for bid 2 (ratio 2/3) vs specialists at 1.
        selection = greedy_cover(soac_small)
        assert [w for w, _ in selection] == [3]

    def test_specialists_win_when_generalist_overpriced(self):
        instance = instance_from(
            accuracy=[[1, 0], [0, 1], [1, 1]],
            bids=[1.0, 1.0, 5.0],
            requirements=[1.0, 1.0],
        )
        selection = [w for w, _ in greedy_cover(instance)]
        assert sorted(selection) == [0, 1]

    def test_residuals_recorded_before_selection(self, soac_small):
        selection = greedy_cover(soac_small)
        _, residual = selection[0]
        assert np.allclose(residual, [1.0, 1.0, 1.0])

    def test_exclusion(self, soac_small):
        selection = greedy_cover(soac_small, exclude=3)
        assert sorted(w for w, _ in selection) == [0, 1, 2]

    def test_infeasible_raises(self):
        instance = instance_from(
            accuracy=[[0.5, 0.0]],
            bids=[1.0],
            requirements=[1.0, 1.0],
        )
        with pytest.raises(InfeasibleCoverageError):
            greedy_cover(instance)

    def test_marginal_coverage_is_capped(self):
        """A worker's usefulness is min(residual, accuracy) summed —
        surplus accuracy on an almost-covered task must not count."""
        instance = instance_from(
            # w0 floods t0 far beyond its requirement; w1 covers both.
            accuracy=[[1.0, 0.0], [0.6, 0.6]],
            bids=[1.0, 1.3],
            requirements=[0.5, 0.5],
        )
        selection = [w for w, _ in greedy_cover(instance)]
        # w0's marginal is min(0.5, 1.0) = 0.5 -> ratio 2.0;
        # w1's marginal is 1.0 -> ratio 1.3; w1 must go first.
        assert selection[0] == 1


class TestReverseAuction:
    def test_winner_set_covers(self, soac_medium):
        outcome = ReverseAuction().run(soac_medium)
        assert soac_medium.is_covering(outcome.winner_indexes)

    def test_payments_cover_bids(self, soac_medium):
        """Critical payments are never below the winner's own bid
        (individual rationality under truthful bidding, Lemma 2)."""
        outcome = ReverseAuction().run(soac_medium)
        bid_by_id = dict(zip(soac_medium.worker_ids, soac_medium.bids))
        for worker_id in outcome.winner_ids:
            assert outcome.payments[worker_id] >= bid_by_id[worker_id] - 1e-9

    def test_losers_get_nothing(self, soac_medium):
        outcome = ReverseAuction().run(soac_medium)
        losers = set(soac_medium.worker_ids) - set(outcome.winner_ids)
        for worker_id in losers:
            assert outcome.payment_of(worker_id) == 0.0
            assert outcome.utility_of(worker_id, cost=3.0) == 0.0

    def test_social_cost_uses_costs_not_bids(self):
        instance = instance_from(
            accuracy=[[1.0], [1.0]],
            bids=[1.0, 2.0],
            requirements=[1.0],
            costs=[0.5, 2.0],
        )
        outcome = ReverseAuction().run(instance)
        assert outcome.winner_ids == ("w0",)
        assert outcome.social_cost == pytest.approx(0.5)

    def test_monopolist_flagged_and_paid(self):
        instance = instance_from(
            # Only w0 can cover t1.
            accuracy=[[1.0, 1.0], [1.0, 0.0]],
            bids=[2.0, 1.0],
            requirements=[1.0, 1.0],
        )
        outcome = ReverseAuction(monopoly_payment_factor=1.5).run(instance)
        assert "w0" in outcome.monopolists
        assert outcome.payments["w0"] == pytest.approx(3.0)
        # The default factor pays a monopolist exactly its bid.
        assert ReverseAuction().monopoly_payment_factor == 1.0
        assert ReverseAuction().run(instance).payments["w0"] == pytest.approx(2.0)

    @pytest.mark.parametrize("factor", [0.5, 0.9, float("nan"), float("inf")])
    def test_monopoly_factor_validated(self, factor):
        with pytest.raises(ConfigurationError, match="monopoly_payment_factor"):
            ReverseAuction(monopoly_payment_factor=factor)

    def test_infeasible_instance_raises(self):
        instance = instance_from(
            accuracy=[[0.2]],
            bids=[1.0],
            requirements=[1.0],
        )
        with pytest.raises(InfeasibleCoverageError):
            ReverseAuction().run(instance)

    def test_critical_payment_hand_computed(self):
        """Two identical single-task workers: the winner's critical
        value is the loser's bid."""
        instance = instance_from(
            accuracy=[[1.0], [1.0]],
            bids=[1.0, 4.0],
            requirements=[1.0],
        )
        outcome = ReverseAuction().run(instance)
        assert outcome.winner_ids == ("w0",)
        assert outcome.payments["w0"] == pytest.approx(4.0)

    def test_critical_payment_scales_with_coverage(self):
        """Replacement covers less, so the winner's payment scales up by
        the coverage ratio (Alg. 2 line 15)."""
        instance = instance_from(
            accuracy=[[1.0, 1.0], [0.5, 0.5], [0.5, 0.5]],
            bids=[1.5, 1.0, 1.0],
            requirements=[1.0, 1.0],
        )
        outcome = ReverseAuction().run(instance)
        # w0 ratio: 1.5/2 = 0.75 beats 1.0/1.0; w0 wins alone.
        assert outcome.winner_ids == ("w0",)
        # Without w0: w1 then w2 are selected, each covering 1.0 while
        # w0 would cover 2.0 -> payment max(1.0 * 2/1, 1.0 * 1/1) = 2.0.
        assert outcome.payments["w0"] == pytest.approx(2.0)

    def test_total_payment_consistent(self, soac_medium):
        outcome = ReverseAuction().run(soac_medium)
        assert outcome.total_payment == pytest.approx(
            sum(outcome.payments.values())
        )

    def test_selection_order_preserved(self, soac_medium):
        outcome = ReverseAuction().run(soac_medium)
        assert len(outcome.winner_ids) == len(outcome.winner_indexes)
        for worker_id, index in zip(outcome.winner_ids, outcome.winner_indexes):
            assert soac_medium.worker_ids[index] == worker_id
