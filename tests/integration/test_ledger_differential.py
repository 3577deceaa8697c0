"""Differential suite: ledger-backed runs are bit-identical to cold runs.

The acceptance contract of the run ledger (ISSUE 5 / DESIGN.md §11):

- warm (cache-hit) runs reproduce cold runs bit for bit across fig3a,
  table1, and a scenario sweep;
- an *interrupted* sweep resumes at instance granularity — already
  banked rows are never recomputed;
- growing ``--instances`` reuses the banked prefix and computes only
  the delta.

Everything runs at a deliberately tiny scale: the point is provenance
plumbing, not statistics.
"""

from __future__ import annotations

import pytest

from repro.artifacts import RunKey, RunLedger
from repro.experiments.registry import run_experiment
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.runner import scenario_run_key, sweep_scenario
from repro.simulation.runner import run_instances

pytestmark = pytest.mark.filterwarnings("ignore::repro.errors.ConvergenceWarning")


@pytest.fixture
def ledger(tmp_path) -> RunLedger:
    return RunLedger(tmp_path / "store")


class TestExperimentsBitIdentical:
    def test_fig3a_warm_equals_cold(self, ledger):
        kwargs = dict(
            scale="quick",
            instances=2,
            epsilon_grid=(0.3, 0.7),
            alpha_grid=(0.2,),
        )
        cold = run_experiment("fig3a", **kwargs, ledger=ledger)
        ledger.reset_stats()
        warm = run_experiment("fig3a", **kwargs, ledger=ledger)
        assert warm == cold  # dataclass equality: series, x, meta
        assert ledger.stats.hits == 1 and ledger.stats.misses == 0
        plain = run_experiment("fig3a", **kwargs)
        assert plain.to_payload() == cold.to_payload()

    def test_table1_warm_equals_cold(self, ledger):
        cold = run_experiment("table1", ledger=ledger)
        ledger.reset_stats()
        warm = run_experiment("table1", ledger=ledger)
        assert warm == cold
        assert ledger.stats.hits == 1 and ledger.stats.misses == 0
        plain = run_experiment("table1")
        assert plain.to_payload() == cold.to_payload()

    def test_row_level_reuse_survives_result_eviction(self, ledger):
        kwargs = dict(
            scale="quick",
            instances=2,
            epsilon_grid=(0.3,),
            alpha_grid=(0.2,),
        )
        cold = run_experiment("fig3a", **kwargs, ledger=ledger)
        # Drop the finished results; the instance rows stay banked.
        ledger.gc(kind="results")
        ledger.reset_stats()
        rebuilt = run_experiment("fig3a", **kwargs, ledger=ledger)
        assert rebuilt.to_payload() == cold.to_payload()
        # One result miss, then every instance row served from the bank.
        assert ledger.stats.hits == 2
        assert ledger.stats.misses == 1


class TestInstanceGranularity:
    def test_growing_instances_reuses_prefix(self, ledger):
        key = RunKey("count-demo", {"seed": 7})
        calls: list[int] = []

        def metric(k: int) -> dict[str, float]:
            calls.append(k)
            return {"value": float(k * k)}

        small = run_instances(2, metric, ledger=ledger, key=key)
        assert calls == [0, 1]
        grown = run_instances(5, metric, ledger=ledger, key=key)
        # Only the three new instances computed; prefix read back.
        assert calls == [0, 1, 2, 3, 4]
        assert grown.rows[:2] == small.rows
        assert grown.rows == tuple({"value": float(k * k)} for k in range(5))

    def test_interrupted_run_resumes_where_it_stopped(self, ledger):
        key = RunKey("resume-demo", {"seed": 7})
        calls: list[int] = []

        def metric(k: int) -> dict[str, float]:
            calls.append(k)
            if len(calls) == 3:
                raise KeyboardInterrupt  # simulated ^C mid-sweep
            return {"value": float(k) + 0.5}

        with pytest.raises(KeyboardInterrupt):
            run_instances(4, metric, ledger=ledger, key=key)
        assert calls == [0, 1, 2]  # instances 0 and 1 banked before the cut
        resumed = run_instances(4, metric, ledger=ledger, key=key)
        # The resume recomputed only 2 and 3 — 0 and 1 came from the bank.
        assert calls == [0, 1, 2, 2, 3]
        cold = tuple({"value": float(k) + 0.5} for k in range(4))
        assert resumed.rows == cold

    def test_scenario_instance_rows_shared_across_runs(self, ledger):
        scenario = get_scenario("lazy-spammers").evolve(instances=2)
        cold = run_scenario(scenario)
        warm = run_scenario(scenario, ledger=ledger)
        assert warm.table.rows == cold.table.rows
        ledger.reset_stats()
        again = run_scenario(scenario, ledger=ledger)
        assert again.table.rows == cold.table.rows
        assert ledger.stats.misses == 0 and ledger.stats.hits == 2

    def test_scenario_key_excludes_instance_count(self, ledger):
        base = get_scenario("lazy-spammers")
        two = scenario_run_key(base.evolve(instances=2))
        five = scenario_run_key(base.evolve(instances=5))
        assert ledger.row_fingerprint(two, 0) == ledger.row_fingerprint(five, 0)


class TestScenarioSweep:
    def test_sweep_warm_equals_cold_and_resumes(self, ledger):
        base = get_scenario("lazy-spammers").evolve(instances=2)

        def configure(scenario, x):
            return scenario.evolve(
                strategies=(
                    scenario.strategies[0].__class__(n_workers=max(1, int(x))),
                )
            )

        kwargs = dict(
            x_values=(2.0, 4.0),
            configure=configure,
            metrics=("date_precision", "mv_precision"),
        )
        cold = sweep_scenario(base, **kwargs)
        warm = sweep_scenario(base, **kwargs, ledger=ledger)
        assert warm.to_payload() == cold.to_payload()
        ledger.reset_stats()
        again = sweep_scenario(base, **kwargs, ledger=ledger)
        assert again.to_payload() == cold.to_payload()
        assert ledger.stats.misses == 0
