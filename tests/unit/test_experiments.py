"""Unit tests for the experiment registry, runners, and CLI."""

from __future__ import annotations

import pytest

from repro.errors import UnknownExperimentError
from repro.experiments import (
    PAPER_SCALE,
    QUICK_SCALE,
    ScalePreset,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.experiments.common import (
    auction_algorithms,
    base_config,
    resolve_scale,
    truth_algorithms,
)
from repro.experiments.table1 import TABLE1_TRUTHS, build_affiliation_example

#: A deliberately tiny preset so runner tests stay fast.
TINY = ScalePreset(
    name="tiny",
    n_tasks=24,
    n_workers=14,
    n_copiers=4,
    target_claims=170,
    instances=2,
)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = {e.experiment_id for e in list_experiments()}
        expected = {
            "table1",
            "fig3a", "fig3b",
            "fig4a", "fig4b",
            "fig5a", "fig5b",
            "fig6a", "fig6b",
            "fig7a", "fig7b",
            "fig8a", "fig8b",
            "approx",
        }
        assert expected <= ids

    def test_unknown_id_raises(self):
        with pytest.raises(UnknownExperimentError):
            get_experiment("fig99")

    def test_metadata_present(self):
        for experiment in list_experiments():
            assert experiment.paper_reference
            assert experiment.summary


class TestCommon:
    def test_scale_resolution(self):
        assert resolve_scale("paper") is PAPER_SCALE
        assert resolve_scale("quick") is QUICK_SCALE
        assert resolve_scale(TINY) is TINY
        with pytest.raises(Exception):
            resolve_scale("huge")

    def test_base_config_overrides(self):
        config = base_config(TINY, instances=1, base_seed=7)
        assert config.n_tasks == 24
        assert config.instances == 1
        assert config.base_seed == 7

    def test_truth_algorithm_factory(self):
        algos = truth_algorithms(None)
        assert set(algos) == {"MV", "NC", "DATE", "ED"}
        assert set(truth_algorithms(None, include_ed=False)) == {"MV", "NC", "DATE"}

    def test_auction_algorithm_factory(self):
        assert set(auction_algorithms()) == {"RA", "GA", "GB"}


class TestTable1:
    def test_example_dataset_structure(self):
        dataset = build_affiliation_example()
        assert dataset.n_tasks == 5
        assert dataset.n_workers == 5
        assert dataset.n_claims == 25
        copiers = [w for w in dataset.workers if w.is_copier]
        assert {w.worker_id for w in copiers} == {"w4", "w5"}

    def test_mv_fails_date_recovers(self):
        result = run_experiment("table1")
        mv_correct = sum(result.series["MV"])
        date_correct = sum(result.series["DATE"])
        assert mv_correct == 2  # Stonebraker and Bernstein only
        assert date_correct == 5  # full recovery
        assert sum(result.series["ED"]) == 5

    def test_estimates_recorded(self):
        result = run_experiment("table1")
        estimates = result.meta["estimates"]
        assert estimates["MV"]["Dewitt"] == "UWisc"
        assert estimates["DATE"] == TABLE1_TRUTHS


class TestRunnersSmoke:
    """Each runner must produce a well-formed result at tiny scale."""

    def test_fig3a(self):
        result = run_experiment(
            "fig3a",
            scale=TINY,
            instances=1,
            epsilon_grid=(0.3, 0.5),
            alpha_grid=(0.2,),
        )
        assert result.x_values == (0.3, 0.5)
        assert result.series_names == ["alpha=0.2"]
        for y in result.y("alpha=0.2"):
            assert 0.0 <= y <= 1.0

    def test_fig3b(self):
        result = run_experiment(
            "fig3b", scale=TINY, instances=1, r_grid=(0.2, 0.6)
        )
        assert len(result.y("DATE")) == 2

    def test_fig4a(self):
        result = run_experiment(
            "fig4a", scale=TINY, instances=1, task_grid=(12, 24)
        )
        assert set(result.series) == {"MV", "NC", "DATE", "ED"}
        for series in result.series.values():
            for y in series:
                assert 0.0 <= y <= 1.0

    def test_fig4b_without_ed(self):
        result = run_experiment(
            "fig4b", scale=TINY, instances=1, worker_grid=(8, 14), include_ed=False
        )
        assert set(result.series) == {"MV", "NC", "DATE"}

    def test_fig5a(self):
        result = run_experiment(
            "fig5a", scale=TINY, instances=1, task_grid=(12, 24)
        )
        for series in result.series.values():
            for y in series:
                assert y >= 0.0

    def test_fig6a(self):
        result = run_experiment(
            "fig6a", scale=TINY, instances=1, task_grid=(12, 24)
        )
        assert set(result.series) == {"RA", "GA", "GB"}
        for series in result.series.values():
            for y in series:
                assert y > 0.0

    def test_fig6_cost_rises_with_tasks(self):
        result = run_experiment(
            "fig6a", scale=TINY, instances=2, task_grid=(8, 24)
        )
        assert result.y("RA")[0] <= result.y("RA")[-1]

    def test_fig7b(self):
        result = run_experiment(
            "fig7b", scale=TINY, instances=1, worker_grid=(8, 14)
        )
        assert set(result.series) == {"RA", "GA", "GB"}

    def test_fig8a_truthfulness(self):
        result = run_experiment("fig8a", scale=TINY)
        truthful = result.meta["truthful_utility"]
        assert truthful >= 0.0
        for utility in result.y("utility"):
            assert utility <= truthful + 1e-9

    def test_fig8b_truthfulness(self):
        result = run_experiment("fig8b", scale=TINY)
        assert result.meta["truthful_utility"] == 0.0
        for utility in result.y("utility"):
            assert utility <= 1e-9

    def test_approx_ratio_at_least_one(self):
        result = run_experiment(
            "approx", instances=2, n_tasks=10, n_workers=12, n_copiers=2
        )
        for ratio in result.y("ratio"):
            assert ratio >= 1.0 - 1e-9
        assert result.meta["mean_ratio"] >= 1.0 - 1e-9

    def test_winners_quality(self):
        result = run_experiment(
            "winners", scale=TINY, requirement_scales=(0.5, 1.0)
        )
        assert set(result.series) == {
            "all workers",
            "winners only",
            "winner fraction",
        }
        # Hiring more (higher requirements) must not shrink the winner set.
        fractions = result.y("winner fraction")
        assert fractions[-1] >= fractions[0]
        for y in result.y("winners only"):
            assert 0.0 <= y <= 1.0


class TestCLI:
    def test_list_command(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4a" in out
        assert "table1" in out

    def test_run_table1(self, capsys, tmp_path):
        from repro.__main__ import main

        code = main(["run", "table1", "--out", str(tmp_path), "--no-chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "table1.json").exists()

    def test_run_unknown_experiment(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="unknown experiment 'fig99'") as excinfo:
            main(["run", "fig99"])
        assert isinstance(excinfo.value.__cause__, UnknownExperimentError)
