"""Unit tests for the SOAC instance model (repro.auction.soac)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DATE,
    ConfigurationError,
    InfeasibleCoverageError,
    SOACInstance,
)


class TestValidation:
    def test_shape_mismatch_rejected(self, soac_small):
        with pytest.raises(ConfigurationError):
            SOACInstance(
                worker_ids=soac_small.worker_ids,
                task_ids=soac_small.task_ids,
                requirements=np.array([1.0]),  # wrong length
                accuracy=soac_small.accuracy,
                bids=soac_small.bids,
                costs=soac_small.costs,
                task_values=soac_small.task_values,
            )

    def test_accuracy_bounds_checked(self, soac_small):
        bad = soac_small.accuracy.copy()
        bad[0, 0] = 1.5
        with pytest.raises(ConfigurationError):
            SOACInstance(
                worker_ids=soac_small.worker_ids,
                task_ids=soac_small.task_ids,
                requirements=soac_small.requirements,
                accuracy=bad,
                bids=soac_small.bids,
                costs=soac_small.costs,
                task_values=soac_small.task_values,
            )

    def test_negative_bid_rejected(self, soac_small):
        bad = soac_small.bids.copy()
        bad[0] = -1.0
        with pytest.raises(ConfigurationError):
            SOACInstance(
                worker_ids=soac_small.worker_ids,
                task_ids=soac_small.task_ids,
                requirements=soac_small.requirements,
                accuracy=soac_small.accuracy,
                bids=bad,
                costs=soac_small.costs,
                task_values=soac_small.task_values,
            )

    @pytest.mark.parametrize("field", ["requirements", "bids", "costs"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, soac_small, field, value):
        # NaN fails every ordered comparison, so a bare "< 0" check
        # would let it through to the auction.
        bad = getattr(soac_small, field).copy()
        bad[0] = value
        fields = {
            name: getattr(soac_small, name)
            for name in (
                "worker_ids", "task_ids", "requirements", "accuracy",
                "bids", "costs", "task_values",
            )
        }
        fields[field] = bad
        with pytest.raises(ConfigurationError):
            SOACInstance(**fields)

    def test_nan_accuracy_rejected(self, soac_small):
        bad = soac_small.accuracy.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            SOACInstance(
                worker_ids=soac_small.worker_ids,
                task_ids=soac_small.task_ids,
                requirements=soac_small.requirements,
                accuracy=bad,
                bids=soac_small.bids,
                costs=soac_small.costs,
                task_values=soac_small.task_values,
            )


class TestQueries:
    def test_coverage(self, soac_small):
        assert np.allclose(soac_small.coverage([3]), [1.0, 1.0, 1.0])
        assert np.allclose(soac_small.coverage([0, 1]), [1.0, 1.0, 0.0])
        assert np.allclose(soac_small.coverage([]), [0.0, 0.0, 0.0])

    def test_is_covering(self, soac_small):
        assert soac_small.is_covering([3])
        assert soac_small.is_covering([0, 1, 2])
        assert not soac_small.is_covering([0, 1])

    def test_uncovered_tasks(self, soac_small):
        assert soac_small.uncovered_tasks([0, 1]) == ("t2",)
        assert soac_small.uncovered_tasks([3]) == ()

    def test_feasibility(self, soac_small):
        assert soac_small.is_feasible
        soac_small.check_feasible()  # must not raise

    def test_infeasible_detection(self, soac_small):
        bumped = SOACInstance(
            worker_ids=soac_small.worker_ids,
            task_ids=soac_small.task_ids,
            requirements=np.array([10.0, 1.0, 1.0]),
            accuracy=soac_small.accuracy,
            bids=soac_small.bids,
            costs=soac_small.costs,
            task_values=soac_small.task_values,
        )
        assert not bumped.is_feasible
        with pytest.raises(InfeasibleCoverageError) as exc:
            bumped.check_feasible()
        assert exc.value.task_ids == ("t0",)

    def test_social_cost(self, soac_small):
        assert soac_small.social_cost([0, 3]) == pytest.approx(3.0)
        assert soac_small.social_cost([]) == 0.0

    def test_platform_value(self, soac_small):
        assert soac_small.platform_value([3]) == pytest.approx(15.0)
        assert soac_small.platform_value([0]) == 0.0  # not covering


class TestTransformations:
    def test_with_bid(self, soac_small):
        changed = soac_small.with_bid(0, 9.0)
        assert changed.bids[0] == 9.0
        assert soac_small.bids[0] == 1.0  # original untouched
        assert changed.costs[0] == soac_small.costs[0]  # cost unchanged

    def test_with_bid_negative_rejected(self, soac_small):
        with pytest.raises(ConfigurationError):
            soac_small.with_bid(0, -1.0)

    def test_with_bid_nan_rejected(self, soac_small):
        with pytest.raises(ConfigurationError):
            soac_small.with_bid(0, float("nan"))

    def test_without_worker(self, soac_small):
        reduced = soac_small.without_worker(3)
        assert reduced.n_workers == 3
        assert "w3" not in reduced.worker_ids
        assert not reduced.is_covering(range(reduced.n_workers)) or True

    def test_with_capped_requirements(self, soac_small):
        bumped = SOACInstance(
            worker_ids=soac_small.worker_ids,
            task_ids=soac_small.task_ids,
            requirements=np.array([10.0, 1.0, 1.0]),
            accuracy=soac_small.accuracy,
            bids=soac_small.bids,
            costs=soac_small.costs,
            task_values=soac_small.task_values,
        )
        capped = bumped.with_capped_requirements(0.5)
        # t0's available accuracy is 2.0 -> capped at 1.0.
        assert capped.requirements[0] == pytest.approx(1.0)
        assert capped.requirements[1] == pytest.approx(1.0)
        assert capped.is_feasible

    def test_cap_fraction_validated(self, soac_small):
        with pytest.raises(ConfigurationError):
            soac_small.with_capped_requirements(0.0)


class TestFromTruthDiscovery:
    def test_pipeline_construction(self, qlf_small):
        result = DATE().run(qlf_small)
        instance = SOACInstance.from_truth_discovery(qlf_small, result)
        bidders = {b.worker_id for b in qlf_small.bids()}
        assert set(instance.worker_ids) == bidders
        assert instance.n_tasks == qlf_small.n_tasks
        # Bids default to true costs (truthful bidding).
        for i, worker_id in enumerate(instance.worker_ids):
            assert instance.bids[i] == pytest.approx(
                qlf_small.worker_by_id[worker_id].cost
            )

    def test_accuracy_zero_outside_bid_tasks(self, qlf_small):
        result = DATE().run(qlf_small)
        instance = SOACInstance.from_truth_discovery(qlf_small, result)
        claims = qlf_small.claims_by_worker
        for i, worker_id in enumerate(instance.worker_ids):
            answered = set(claims[worker_id])
            for j, task_id in enumerate(instance.task_ids):
                if task_id not in answered:
                    assert instance.accuracy[i, j] == 0.0

    def test_requirement_override(self, qlf_small):
        result = DATE().run(qlf_small)
        overrides = {qlf_small.tasks[0].task_id: 0.25}
        instance = SOACInstance.from_truth_discovery(
            qlf_small, result, requirements=overrides
        )
        assert instance.requirements[0] == pytest.approx(0.25)
