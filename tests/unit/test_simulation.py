"""Unit tests for the simulation harness (repro.simulation)."""

from __future__ import annotations

import pytest

from repro import (
    DATE,
    ConfigurationError,
    ExperimentConfig,
    MajorityVote,
    MetricMismatchError,
)
from repro.simulation import (
    InstanceTable,
    SummaryStats,
    auction_report,
    copier_detection_report,
    precision,
    run_instances,
    summarize,
    sweep_series,
    timed,
)


class TestStats:
    def test_single_value(self):
        stats = summarize([2.0])
        assert stats.mean == 2.0
        assert stats.std == 0.0
        assert stats.ci95_low == stats.ci95_high == 2.0

    def test_known_sample(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.ci95_low < stats.mean < stats.ci95_high

    def test_constant_sample_zero_width_ci(self):
        stats = summarize([5.0, 5.0, 5.0])
        assert stats.ci95_halfwidth == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str_format(self):
        assert "n=3" in str(summarize([1.0, 2.0, 3.0]))


class TestRunner:
    def test_collects_rows(self):
        table = run_instances(3, lambda k: {"x": float(k)})
        assert table.n_instances == 3
        assert table.column("x") == [0.0, 1.0, 2.0]
        assert table.mean("x") == pytest.approx(1.0)

    def test_summary(self):
        table = run_instances(4, lambda k: {"a": 1.0, "b": float(k)})
        summary = table.summary()
        assert set(summary) == {"a", "b"}
        assert isinstance(summary["a"], SummaryStats)

    def test_missing_metric_raises_with_hint(self):
        table = InstanceTable(rows=({"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.0}))
        with pytest.raises(KeyError, match="'c'"):
            table.column("c")

    def test_ragged_rows_raise_naming_instance_and_metric(self):
        # A ragged table is a shape bug in the metric function; the
        # names property must name the offender instead of silently
        # intersecting columns away.
        table = InstanceTable(rows=({"a": 1.0, "b": 2.0}, {"a": 3.0}, {"a": 5.0}))
        with pytest.raises(MetricMismatchError, match=r"instance 1.*missing \['b'\]"):
            table.metric_names
        extra = InstanceTable(rows=({"a": 1.0}, {"a": 2.0, "zz": 3.0}))
        with pytest.raises(MetricMismatchError, match=r"unexpected \['zz'\]"):
            extra.summary()

    def test_empty_metrics_rejected(self):
        with pytest.raises(ValueError):
            run_instances(1, lambda k: {})

    def test_zero_instances_rejected(self):
        with pytest.raises(ValueError):
            run_instances(0, lambda k: {"x": 1.0})


class TestSweep:
    def test_series_assembled(self):
        result = sweep_series(
            "demo",
            "demo sweep",
            "x",
            "y",
            [1.0, 2.0, 3.0],
            lambda x: {"double": 2 * x, "square": x * x},
        )
        assert result.y("double") == (2.0, 4.0, 6.0)
        assert result.y("square") == (1.0, 4.0, 9.0)
        assert result.rows()[1] == (2.0, 4.0, 4.0)

    def test_inconsistent_series_rejected(self):
        def point(x):
            return {"a": x} if x < 2 else {"b": x}

        with pytest.raises(ValueError):
            sweep_series("demo", "t", "x", "y", [1.0, 2.0], point)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_series("demo", "t", "x", "y", [], lambda x: {"a": x})

    def test_result_length_validation(self):
        from repro.simulation.sweep import ExperimentResult

        with pytest.raises(ValueError):
            ExperimentResult(
                experiment_id="bad",
                title="",
                x_label="x",
                y_label="y",
                x_values=(1.0, 2.0),
                series={"s": (1.0,)},
            )


class TestTiming:
    def test_timed_wrapper(self):
        value, seconds = timed(lambda a, b: a + b, 2, b=3)
        assert value == 5
        assert seconds >= 0.0


class TestMetrics:
    def test_precision(self, tiny_dataset):
        result = MajorityVote().run(tiny_dataset)
        assert 0.0 <= precision(result, tiny_dataset) <= 1.0

    def test_copier_detection_report(self, qlf_small):
        result = DATE().run(qlf_small)
        report = copier_detection_report(result, qlf_small)
        assert report.copier_pairs > 0
        assert report.independent_pairs > 0
        # DATE should separate true copier pairs from independent ones.
        assert report.separation > 0.0

    def test_auction_report(self, qlf_small):
        from repro import IMC2

        outcome = IMC2().run(qlf_small)
        report = auction_report(outcome.instance, outcome.auction)
        assert report.covered
        assert report.n_winners == len(outcome.winners)
        assert report.overpayment_ratio >= 1.0


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.n_tasks == 300
        assert config.n_workers == 120
        assert config.n_copiers == 30

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(n_copiers=120, n_workers=120)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(instances=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(copy_prob=1.5)

    def test_dataset_for_is_deterministic(self):
        config = ExperimentConfig(
            n_tasks=20, n_workers=10, n_copiers=2, target_claims=100, instances=2
        )
        assert config.dataset_for(0).claims == config.dataset_for(0).claims
        assert config.dataset_for(0).claims != config.dataset_for(1).claims

    def test_instance_seed_stability(self):
        a = ExperimentConfig(
            n_tasks=20, n_workers=10, n_copiers=2, target_claims=100, instances=2
        )
        b = a.evolve(instances=5)
        assert a.instance_seed(0) == b.instance_seed(0)

    def test_instance_index_bounds(self):
        config = ExperimentConfig(
            n_tasks=20, n_workers=10, n_copiers=2, target_claims=100, instances=2
        )
        with pytest.raises(ConfigurationError):
            config.dataset_for(2)

    def test_world_config_resolution(self):
        config = ExperimentConfig(n_tasks=33, n_workers=11, n_copiers=1)
        world = config.world_config
        assert world.n_tasks == 33
        assert world.n_workers == 11

    def test_datasets_length(self):
        config = ExperimentConfig(
            n_tasks=10, n_workers=6, n_copiers=1, target_claims=40, instances=3
        )
        assert len(config.datasets()) == 3
