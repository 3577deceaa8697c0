"""Unit tests for the IMC2 orchestrator (repro.mechanism.imc2)."""

from __future__ import annotations

import pytest

from repro import IMC2, DateConfig, MajorityVote, ReverseAuction


class TestIMC2:
    def test_end_to_end_outcome(self, qlf_small):
        outcome = IMC2().run(qlf_small)
        assert outcome.truth.method == "DATE"
        assert outcome.auction.method == "RA"
        assert len(outcome.winners) > 0
        assert outcome.instance.is_covering(outcome.auction.winner_indexes)

    def test_worker_utilities(self, qlf_small):
        outcome = IMC2().run(qlf_small)
        winners = set(outcome.winners)
        for worker_id, utility in outcome.worker_utilities.items():
            if worker_id in winners:
                # IR under truthful bidding: non-negative utility.
                assert utility >= -1e-9
            else:
                assert utility == 0.0

    def test_welfare_accounting(self, qlf_small):
        outcome = IMC2().run(qlf_small)
        value = outcome.instance.platform_value(outcome.auction.winner_indexes)
        assert outcome.platform_utility == pytest.approx(
            value - outcome.auction.total_payment
        )
        assert outcome.social_welfare == pytest.approx(
            value - outcome.auction.social_cost
        )
        # Payments >= costs for winners, so the platform keeps less than
        # the social welfare.
        assert outcome.platform_utility <= outcome.social_welfare + 1e-9

    def test_estimated_truths_exposed(self, qlf_small):
        outcome = IMC2().run(qlf_small)
        assert outcome.estimated_truths == outcome.truth.truths

    def test_custom_truth_algorithm(self, qlf_small):
        outcome = IMC2().run(qlf_small, truth=MajorityVote().run(qlf_small))
        assert outcome.truth.method == "MV"

    def test_custom_date_config(self, qlf_small):
        outcome = IMC2(DateConfig(copy_prob_r=0.6)).run(qlf_small)
        assert outcome.truth.method == "DATE"

    def test_requirement_override(self, qlf_small):
        # Tiny requirements -> fewer winners needed.
        overrides = {t.task_id: 0.2 for t in qlf_small.tasks}
        small = IMC2().run(qlf_small, requirements=overrides)
        full = IMC2().run(qlf_small)
        assert small.auction.social_cost <= full.auction.social_cost + 1e-9

    def test_bid_override_changes_instance(self, qlf_small):
        bidder = qlf_small.bids()[0].worker_id
        bids = qlf_small.bids(prices={bidder: 0.01})
        outcome = IMC2().run(qlf_small, bids=bids)
        i = outcome.instance.worker_ids.index(bidder)
        assert outcome.instance.bids[i] == pytest.approx(0.01)
        # True cost is unchanged by a strategic bid.
        assert outcome.instance.costs[i] == pytest.approx(
            qlf_small.worker_by_id[bidder].cost
        )

    def test_custom_auction(self, qlf_small):
        outcome = IMC2(auction=ReverseAuction(monopoly_payment_factor=2.0)).run(
            qlf_small
        )
        assert outcome.auction.method == "RA"
