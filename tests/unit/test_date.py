"""Unit tests for the DATE driver and its configuration (repro.core.date)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DATE, ConfigurationError, DateConfig, discover_truth
from repro.core import DatasetIndex, ZipfFalseValues


class TestDateConfig:
    def test_defaults_match_paper(self):
        config = DateConfig()
        assert config.copy_prob_r == 0.4
        assert config.initial_accuracy == 0.5
        assert config.prior_alpha == 0.2
        assert config.max_iterations == 100

    @pytest.mark.parametrize(
        "field, value",
        [
            ("copy_prob_r", 0.0),
            ("copy_prob_r", 1.0),
            ("initial_accuracy", 0.0),
            ("initial_accuracy", 1.0),
            ("prior_alpha", 0.0),
            ("prior_alpha", 1.0),
            ("max_iterations", 0),
            ("accuracy_clamp", (0.0, 0.5)),
            ("accuracy_clamp", (0.6, 0.5)),
            ("granularity", "per-claim"),
            ("ordering", "random"),
            ("discount_mode", "either"),
            ("similarity_weight", 1.5),
            ("discounted_posterior", "no"),
            ("discounted_posterior", []),
            ("discounted_posterior", 1),
            ("discounted_posterior", None),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            DateConfig(**{field: value})

    def test_similarity_weight_requires_function(self):
        with pytest.raises(ConfigurationError):
            DateConfig(similarity_weight=0.5, similarity=None)

    def test_similarity_must_be_callable(self):
        # A string used to pass, then fail every ingest with a TypeError.
        with pytest.raises(ConfigurationError, match="similarity"):
            DateConfig(similarity="abc", similarity_weight=0.5)  # type: ignore[arg-type]
        with pytest.raises(ConfigurationError, match="similarity"):
            DateConfig(similarity="abc")  # type: ignore[arg-type]

    def test_false_values_type_checked(self):
        with pytest.raises(ConfigurationError):
            DateConfig(false_values="uniform")  # type: ignore[arg-type]

    def test_evolve_revalidates(self):
        config = DateConfig()
        assert config.evolve(copy_prob_r=0.7).copy_prob_r == 0.7
        with pytest.raises(ConfigurationError):
            config.evolve(copy_prob_r=2.0)


class TestDateRun:
    def test_result_structure(self, tiny_dataset):
        result = DATE().run(tiny_dataset)
        assert result.method == "DATE"
        assert set(result.truths) == {"t0", "t1", "t2", "t3"}
        assert result.accuracy_matrix.shape == (5, 4)
        assert set(result.worker_accuracy) == {"w1", "w2", "w3", "w4", "w5"}
        assert result.converged
        assert result.iterations >= 1

    def test_recovers_truth_against_copiers(self, tiny_dataset):
        """w3+w4 (copier pair) tie or outvote honest workers on t2/t3;
        DATE must still recover 'A' everywhere."""
        config = DateConfig(copy_prob_r=0.8, prior_alpha=0.3)
        result = DATE(config).run(tiny_dataset)
        assert result.truths == {f"t{j}": "A" for j in range(4)}
        assert result.precision() == 1.0

    def test_copier_pair_has_high_dependence(self, tiny_dataset):
        result = DATE(DateConfig(copy_prob_r=0.8)).run(tiny_dataset)
        assert ("w3", "w4") in result.dependence
        copier = result.dependence[("w3", "w4")].p_dependent
        honest = result.dependence[("w1", "w2")].p_dependent
        assert copier > honest

    def test_confidence_in_unit_interval(self, tiny_dataset):
        result = DATE().run(tiny_dataset)
        for value in result.confidence.values():
            assert 0.0 <= value <= 1.0

    def test_accuracy_matrix_zero_for_unanswered(self, tiny_dataset):
        result = DATE().run(tiny_dataset)
        i = result.worker_ids.index("w5")
        j = result.task_ids.index("t2")
        assert result.accuracy_matrix[i, j] == 0.0

    def test_deterministic(self, qlf_small):
        a = DATE().run(qlf_small)
        b = DATE().run(qlf_small)
        assert a.truths == b.truths
        assert np.array_equal(a.accuracy_matrix, b.accuracy_matrix)

    def test_shared_index_gives_same_result(self, qlf_small):
        index = DatasetIndex(qlf_small)
        a = DATE().run(qlf_small, index=index)
        b = DATE().run(qlf_small)
        assert a.truths == b.truths

    def test_respects_iteration_cap(self, qlf_small):
        config = DateConfig(max_iterations=1)
        with pytest.warns(Warning):
            result = DATE(config).run(qlf_small)
        assert result.iterations == 1

    def test_discover_truth_wrapper(self, tiny_dataset):
        result = discover_truth(tiny_dataset)
        assert result.method == "DATE"

    def test_zipf_false_values_supported(self, tiny_dataset):
        config = DateConfig(false_values=ZipfFalseValues(exponent=1.2))
        result = DATE(config).run(tiny_dataset)
        assert set(result.truths) == {"t0", "t1", "t2", "t3"}

    def test_undiscounted_posterior_mode(self, tiny_dataset):
        config = DateConfig(discounted_posterior=False)
        result = DATE(config).run(tiny_dataset)
        assert set(result.truths) == {"t0", "t1", "t2", "t3"}

    def test_task_granularity_mode(self, tiny_dataset):
        config = DateConfig(granularity="task")
        result = DATE(config).run(tiny_dataset)
        assert result.accuracy_matrix.shape == (5, 4)

    def test_precision_against_explicit_reference(self, tiny_dataset):
        result = DATE().run(tiny_dataset)
        reference = {"t0": "A", "t1": "B"}
        precision = result.precision(reference)
        assert precision in (0.0, 0.5, 1.0)

    def test_precision_without_truths_raises(self):
        from repro import Dataset, Task, WorkerProfile

        dataset = Dataset(
            tasks=(Task(task_id="t0"),),
            workers=(WorkerProfile(worker_id="w"),),
            claims={("w", "t0"): "x"},
        )
        result = DATE().run(dataset)
        with pytest.raises(ValueError):
            result.precision()
