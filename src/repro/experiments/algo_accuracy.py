"""Algorithm zoo accuracy × copier-fraction grid (``algo-accuracy``).

Every zoo member (:data:`~repro.discovery.ALGORITHM_NAMES`) runs on the
same seeded instances while the copier fraction sweeps, exposing the
paper's central contrast: reputation-iterating baselines (TruthFinder,
LCA) *amplify* copied claims and degrade as copiers grow, majority
voting degrades gently, and DATE's dependence-aware discounting stays
robust.

Execution follows the fig3 instance-first template: one module-level
work function evaluates the whole (algorithm × fraction) grid on the
k-th instance, sharing one :class:`~repro.core.DatasetIndex` per
fraction across every algorithm, so ``parallel=N`` and the run ledger
are sound (each instance row is a pure function of ``(config, k)``).
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from functools import partial

from ..artifacts import RunLedger, cached_result
from ..core.indexing import DatasetIndex
from ..discovery import ALGORITHM_NAMES, canonical_algorithm, make_discoverer
from ..simulation.config import ExperimentConfig
from ..simulation.metrics import precision
from ..simulation.runner import run_instances
from ..simulation.sweep import ExperimentResult, sweep_series
from .common import ScalePreset, base_config, instance_run_key, result_run_key

__all__ = ["run_algo_accuracy"]

#: Copier fractions of the worker pool swept by default.
_DEFAULT_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4)


def _cell(name: str, fraction: float) -> str:
    return f"{name}|copiers={fraction:g}"


def _algo_accuracy_instance(
    config: ExperimentConfig,
    algorithms: tuple[str, ...],
    fractions: tuple[float, ...],
    k: int,
) -> dict[str, float]:
    """Precision of the whole grid on instance ``k`` (picklable)."""
    row: dict[str, float] = {}
    for fraction in fractions:
        point = config.evolve(n_copiers=int(round(fraction * config.n_workers)))
        dataset = point.dataset_for(k)
        index = DatasetIndex(dataset)
        for name in algorithms:
            discoverer = make_discoverer(name, date_config=config.date)
            with warnings.catch_warnings():
                # TruthFinder/LCA legitimately hit their iteration caps
                # on adversarial instances; the cap is part of the
                # algorithm definition, not a data-quality problem.
                warnings.simplefilter("ignore")
                result = discoverer.run(dataset, index=index)
            row[_cell(name, fraction)] = precision(result, dataset)
    return row


def run_algo_accuracy(
    scale: str | ScalePreset = "quick",
    *,
    instances: int | None = None,
    base_seed: int = 42,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
    copier_fractions: Sequence[float] = _DEFAULT_FRACTIONS,
    parallel: int | None = 1,
    ledger: RunLedger | None = None,
) -> ExperimentResult:
    """Precision of every selected algorithm vs. the copier fraction.

    Datasets are identical across algorithms at each fraction (one
    index shared per point), so series differences are purely
    algorithmic.  Algorithm names are case-insensitive and normalized
    to their canonical registry spelling.
    """
    config = base_config(scale, instances=instances, base_seed=base_seed)
    algorithms = tuple(canonical_algorithm(name) for name in algorithms)
    copier_fractions = tuple(copier_fractions)
    declared = {
        "algorithms": algorithms,
        "copier_fractions": copier_fractions,
    }

    def build() -> ExperimentResult:
        table = run_instances(
            config.instances,
            partial(
                _algo_accuracy_instance,
                config,
                algorithms,
                copier_fractions,
            ),
            parallel=parallel,
            ledger=ledger,
            key=instance_run_key("algo-accuracy", config, **declared),
        )

        def point(fraction: float) -> dict[str, float]:
            return {
                name: table.mean(_cell(name, fraction))
                for name in algorithms
            }

        return sweep_series(
            "algo-accuracy",
            "Precision of the truth-discovery zoo versus copier fraction",
            "copier_fraction",
            "precision",
            copier_fractions,
            point,
            meta={
                "expectation": (
                    "reputation-iterating baselines (TruthFinder, LCA) "
                    "degrade sharply as copiers grow; MV degrades gently; "
                    "DATE's dependence-aware discounting stays robust"
                ),
                "algorithms": list(algorithms),
                "instances": config.instances,
                "base_seed": base_seed,
            },
        )

    return cached_result(
        ledger, result_run_key("algo-accuracy", config, **declared), build
    )
