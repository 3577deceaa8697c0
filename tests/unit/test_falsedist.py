"""Unit tests for the false-value distribution models (repro.core.falsedist)."""

from __future__ import annotations

import pytest

from repro import ConfigurationError, Dataset, Task, WorkerProfile
from repro.core import DatasetIndex
from repro.core.falsedist import (
    EmpiricalFalseValues,
    UniformFalseValues,
    ZipfFalseValues,
)


@pytest.fixture
def skewed_index() -> DatasetIndex:
    """One task, domain of 4 values, claims heavily favoring 'popular'."""
    tasks = (Task(task_id="t0", domain=("truth", "popular", "rare", "never")),)
    workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(6))
    claims = {
        ("w0", "t0"): "popular",
        ("w1", "t0"): "popular",
        ("w2", "t0"): "popular",
        ("w3", "t0"): "truth",
        ("w4", "t0"): "truth",
        ("w5", "t0"): "rare",
    }
    return DatasetIndex(Dataset(tasks=tasks, workers=workers, claims=claims))


class TestUniform:
    def test_collision_is_inverse_num(self, tiny_dataset):
        index = DatasetIndex(tiny_dataset)
        model = UniformFalseValues()
        assert model.collision_probability(0, index) == pytest.approx(0.5)

    def test_value_probability_uniform(self, skewed_index):
        model = UniformFalseValues()
        for value in ("popular", "rare", "never"):
            assert model.value_probability(
                0, skewed_index, value, "truth"
            ) == pytest.approx(1 / 3)


class TestZipf:
    def test_exponent_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfFalseValues(exponent=-1.0)

    def test_zero_exponent_is_uniform(self, skewed_index):
        model = ZipfFalseValues(exponent=0.0)
        probs = [
            model.value_probability(0, skewed_index, v, "truth")
            for v in ("popular", "rare", "never")
        ]
        assert all(p == pytest.approx(probs[0]) for p in probs)

    def test_popular_value_gets_higher_probability(self, skewed_index):
        model = ZipfFalseValues(exponent=1.5)
        p_popular = model.value_probability(0, skewed_index, "popular", "truth")
        p_rare = model.value_probability(0, skewed_index, "rare", "truth")
        assert p_popular > p_rare

    def test_probabilities_sum_near_one(self, skewed_index):
        model = ZipfFalseValues(exponent=1.0)
        total = sum(
            model.value_probability(0, skewed_index, v, "truth")
            for v in ("popular", "rare", "never")
        )
        assert total == pytest.approx(1.0)

    def test_collision_above_uniform(self, skewed_index):
        # A skewed distribution collides more often than uniform.
        zipf = ZipfFalseValues(exponent=1.5)
        uniform = UniformFalseValues()
        assert zipf.collision_probability(0, skewed_index) > uniform.collision_probability(
            0, skewed_index
        )

    def test_collision_in_unit_interval(self, skewed_index):
        model = ZipfFalseValues(exponent=2.0)
        c = model.collision_probability(0, skewed_index)
        assert 0.0 < c <= 1.0


class TestEmpirical:
    def test_smoothing_validation(self):
        with pytest.raises(ConfigurationError):
            EmpiricalFalseValues(smoothing=0.0)

    def test_probability_tracks_counts(self, skewed_index):
        model = EmpiricalFalseValues(smoothing=0.5)
        p_popular = model.value_probability(0, skewed_index, "popular", "truth")
        p_never = model.value_probability(0, skewed_index, "never", "truth")
        assert p_popular > p_never > 0.0

    def test_excludes_assumed_truth(self, skewed_index):
        model = EmpiricalFalseValues()
        total = sum(
            model.value_probability(0, skewed_index, v, "truth")
            for v in ("popular", "rare", "never")
        )
        assert total == pytest.approx(1.0)

    def test_collision_positive(self, skewed_index):
        model = EmpiricalFalseValues()
        assert 0.0 < model.collision_probability(0, skewed_index) <= 1.0

    def test_none_assumed_truth_supported(self, skewed_index):
        model = EmpiricalFalseValues()
        p = model.value_probability(0, skewed_index, "popular", None)
        assert 0.0 < p < 1.0
