"""Unit tests for the truth-discovery baselines MV / NC / ED."""

from __future__ import annotations

import pytest

from repro import DATE, DateConfig, EnumerateDependence, MajorityVote, NoCopier
from repro.baselines import enumerate_dependence
from repro.baselines.enumerate_dependence import _enumerated_independence
from repro.core import DatasetIndex

from tests.oracles import closed_form_independence


class TestMajorityVote:
    def test_method_name(self, tiny_dataset):
        assert MajorityVote().run(tiny_dataset).method == "MV"

    def test_counts_votes(self, tiny_dataset):
        result = MajorityVote().run(tiny_dataset)
        assert result.truths["t1"] == "A"  # 3 vs 2
        assert result.truths["t0"] == "A"  # unanimous

    def test_fooled_by_tie_with_copier(self, tiny_dataset):
        # t2/t3: A (w1, w2) ties B (w3, w4); lexicographic rescue only.
        result = MajorityVote().run(tiny_dataset)
        assert result.truths["t2"] == "A"

    def test_agreement_accuracy(self, tiny_dataset):
        result = MajorityVote().run(tiny_dataset)
        assert result.worker_accuracy["w1"] == pytest.approx(1.0)
        assert result.worker_accuracy["w3"] == pytest.approx(0.25)

    def test_confidence_is_vote_share(self, tiny_dataset):
        result = MajorityVote().run(tiny_dataset)
        assert result.confidence["t1"] == pytest.approx(3 / 5)

    def test_single_iteration(self, tiny_dataset):
        result = MajorityVote().run(tiny_dataset)
        assert result.iterations == 1
        assert result.converged

    def test_no_dependence_reported(self, tiny_dataset):
        assert MajorityVote().run(tiny_dataset).dependence == {}


class TestNoCopier:
    def test_method_name(self, tiny_dataset):
        assert NoCopier().run(tiny_dataset).method == "NC"

    def test_no_dependence_reported(self, tiny_dataset):
        assert NoCopier().run(tiny_dataset).dependence == {}

    def test_converges(self, qlf_small):
        result = NoCopier().run(qlf_small)
        assert result.converged

    def test_beats_mv_on_reliability_spread_without_copiers(self):
        """Accuracy-aware voting helps when reliabilities vary — on
        copier-FREE data.  (With clustered copiers NC can fall below MV:
        the self-agreeing cluster earns spuriously high accuracy, which
        is exactly the failure mode the paper's DATE addresses.)"""
        from repro.datasets import generate_qatar_living_like

        mv_total, nc_total = 0.0, 0.0
        for seed in range(3):
            dataset = generate_qatar_living_like(
                seed=seed,
                n_tasks=40,
                n_workers=24,
                n_copiers=0,
                target_claims=600,
            )
            mv_total += MajorityVote().run(dataset).precision()
            nc_total += NoCopier().run(dataset).precision()
        assert nc_total >= mv_total - 0.02

    def test_respects_config(self, tiny_dataset):
        result = NoCopier(DateConfig(max_iterations=1)).run(tiny_dataset)
        assert result.iterations == 1


class TestEnumerationHelpers:
    def test_enumeration_matches_closed_form(self):
        probs = [0.1, 0.35, 0.8]
        assert _enumerated_independence(probs) == pytest.approx(
            closed_form_independence(probs)
        )

    def test_empty_edge_list(self):
        assert _enumerated_independence([]) == pytest.approx(1.0)
        assert closed_form_independence([]) == pytest.approx(1.0)

    def test_certain_copy_kills_independence(self):
        assert _enumerated_independence([1.0]) == pytest.approx(0.0)


class TestEnumerateDependence:
    def test_method_name(self, tiny_dataset):
        assert EnumerateDependence().run(tiny_dataset).method == "ED"

    def test_closed_form_fallback_same_truths(self, tiny_dataset, monkeypatch):
        exact = EnumerateDependence().run(tiny_dataset)
        monkeypatch.setattr(enumerate_dependence, "EXACT_ENUMERATION_LIMIT", 0)
        fallback = EnumerateDependence().run(tiny_dataset)
        assert exact.truths == fallback.truths

    def test_discounts_against_all_coproviders(self, tiny_dataset):
        """ED discounts both members of a perfectly-agreeing pair,
        whereas DATE leaves the first in the greedy order undiscounted."""
        import warnings

        config = DateConfig(copy_prob_r=0.8, prior_alpha=0.3, max_iterations=1)
        index = DatasetIndex(tiny_dataset)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            date_result = DATE(config).run(tiny_dataset, index=index)
            ed_result = EnumerateDependence(config).run(tiny_dataset, index=index)
        # Support of the copied value B on t2 must be weaker under ED.
        assert ed_result.support["t2"]["B"] <= date_result.support["t2"]["B"] + 1e-9

    def test_recovers_truth_on_copier_data(self, tiny_dataset):
        config = DateConfig(copy_prob_r=0.8, prior_alpha=0.3)
        result = EnumerateDependence(config).run(tiny_dataset)
        assert result.precision() == 1.0


class TestCrossAlgorithm:
    def test_date_at_least_as_good_as_mv_on_qlf(self, qlf_small):
        index = DatasetIndex(qlf_small)
        mv = MajorityVote().run(qlf_small, index=index).precision()
        date = DATE().run(qlf_small, index=index).precision()
        assert date >= mv

    def test_all_report_comparable_structures(self, qlf_small):
        index = DatasetIndex(qlf_small)
        for algo in (MajorityVote(), NoCopier(), DATE(), EnumerateDependence()):
            result = algo.run(qlf_small, index=index)
            assert set(result.truths).issubset({t.task_id for t in qlf_small.tasks})
            assert result.accuracy_matrix.shape == (
                qlf_small.n_workers,
                qlf_small.n_tasks,
            )
