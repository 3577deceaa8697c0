"""Differential tests: the parallel executor is bit-identical to serial.

Every ``parallel=N`` knob in the stack routes through
:func:`repro.simulation.executor.parallel_imap`, whose contract is that
scheduling can never leak into results — all per-instance seeds derive
from the root seed before submission.  These tests pin that contract
end to end: identical :class:`InstanceTable` rows and
:class:`ExperimentResult` series for ``parallel=1`` versus
``parallel=4`` across fig3 and two scenario sweeps.

The ``parallel=4`` runs go through a real 4-worker spawn pool even on
smaller machines (workers just idle), so this also proves spawn-safety
of every shipped work function.
"""

from __future__ import annotations

from functools import partial

from repro.experiments import ScalePreset
from repro.experiments.fig3 import run_fig3a, run_fig3b
from repro.scenarios import get_scenario, run_scenario, sweep_scenario
from repro.scenarios.runner import instance_metrics
from repro.simulation.runner import run_instances
from repro.simulation.sweep import sweep_series

#: Small-but-nontrivial scale: enough claims for DATE to have signal,
#: small enough that the whole module stays CI-friendly.
TINY = ScalePreset(
    name="tiny",
    n_tasks=30,
    n_workers=16,
    n_copiers=4,
    target_claims=240,
    instances=3,
)

PARALLEL = 4


def _assert_same_result(serial, parallel):
    assert serial.x_values == parallel.x_values
    assert serial.series == parallel.series  # exact float equality
    assert serial.series_names == parallel.series_names


class TestExperimentRunners:
    def test_fig3a_parallel_matches_serial(self):
        kwargs = dict(
            scale=TINY,
            base_seed=11,
            epsilon_grid=(0.1, 0.5),
            alpha_grid=(0.2, 0.8),
        )
        _assert_same_result(
            run_fig3a(**kwargs, parallel=1), run_fig3a(**kwargs, parallel=PARALLEL)
        )

    def test_fig3b_parallel_matches_serial(self):
        kwargs = dict(scale=TINY, base_seed=11, r_grid=(0.2, 0.6))
        _assert_same_result(
            run_fig3b(**kwargs, parallel=1), run_fig3b(**kwargs, parallel=PARALLEL)
        )


def _sweep_point(x: float) -> dict[str, float]:
    """Module-level point function: picklable for the spawn pool."""
    return {"linear": 2.0 * x, "square": x * x}


class TestSweepSeries:
    def test_point_level_fan_out_matches_serial(self):
        """sweep_series(parallel=N) with a picklable point_fn."""
        kwargs = dict(
            experiment_id="sweep-exec",
            title="executor sweep",
            x_label="x",
            y_label="y",
            x_values=(0.5, 1.0, 2.0, 3.0),
            point_fn=_sweep_point,
        )
        _assert_same_result(
            sweep_series(**kwargs, parallel=1),
            sweep_series(**kwargs, parallel=PARALLEL),
        )


class TestScenarioRunner:
    def test_instance_table_rows_identical(self):
        scenario = get_scenario("mixed-adversaries").evolve(
            instances=3,
            world=get_scenario("mixed-adversaries").world.evolve(
                n_tasks=30, n_workers=20, target_claims=300
            ),
        )
        serial = run_scenario(scenario, parallel=1)
        parallel = run_scenario(scenario, parallel=PARALLEL)
        assert serial.table.rows == parallel.table.rows

    def test_run_instances_parallel_matches_serial(self):
        scenario = get_scenario("chain-copiers").evolve(
            instances=4,
            world=get_scenario("chain-copiers").world.evolve(
                n_tasks=24, n_workers=16, target_claims=200
            ),
        )
        metric_fn = partial(instance_metrics, scenario)
        serial = run_instances(scenario.instances, metric_fn, parallel=1)
        parallel = run_instances(
            scenario.instances, metric_fn, parallel=PARALLEL
        )
        assert serial.rows == parallel.rows
        assert serial.summary() == parallel.summary()


class TestScenarioSweeps:
    def test_threshold_sweep_identical(self):
        base = get_scenario("sybil-amplification").evolve(
            instances=2,
            world=get_scenario("sybil-amplification").world.evolve(
                n_tasks=24, n_workers=16, target_claims=200
            ),
        )

        def configure(scenario, threshold):
            return scenario.evolve(detection_threshold=threshold)

        kwargs = dict(
            experiment_id="sweep-threshold",
            x_label="threshold",
            metrics=("detection_precision", "detection_recall"),
        )
        _assert_same_result(
            sweep_scenario(base, (0.5, 0.9), configure, parallel=1, **kwargs),
            sweep_scenario(base, (0.5, 0.9), configure, parallel=PARALLEL, **kwargs),
        )

    def test_ring_size_sweep_identical(self):
        base = get_scenario("collusion-ring").evolve(
            instances=2,
            world=get_scenario("collusion-ring").world.evolve(
                n_tasks=24, n_workers=16, target_claims=200
            ),
        )

        def configure(scenario, size):
            from repro.scenarios import CollusionRing

            return scenario.evolve(strategies=(CollusionRing(ring_size=int(size)),))

        kwargs = dict(
            experiment_id="sweep-ring-size",
            x_label="ring size",
            metrics=("date_precision", "detection_f1"),
        )
        _assert_same_result(
            sweep_scenario(base, (2, 4), configure, parallel=1, **kwargs),
            sweep_scenario(base, (2, 4), configure, parallel=PARALLEL, **kwargs),
        )
