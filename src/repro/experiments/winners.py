"""Post-auction truth quality (extension).

The SOAC constraint (Eq. 5) is motivated by the premise that covering
each task's accuracy requirement suffices to discover its truth with
the required confidence.  The paper never tests that premise; this
experiment does: re-run DATE on *only the winners' claims* and compare
precision against using the whole crowd.

Series per requirement-scale point:

- ``all workers`` — DATE precision with every claim;
- ``winners only`` — DATE precision restricted to the auction's
  winner set;
- ``winner fraction`` — |S| / n, how much of the crowd was hired.

Scaling the requirements up buys more winners and should close the
precision gap — the knob the platform actually controls.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..artifacts import RunLedger, cached_result
from ..auction.reverse_auction import ReverseAuction
from ..auction.soac import SOACInstance
from ..core.date import DATE
from ..core.indexing import DatasetIndex
from ..simulation.sweep import ExperimentResult, sweep_series
from .common import ScalePreset, base_config, result_run_key
from .fig67 import REQUIREMENT_CAP

__all__ = ["run_winners_quality"]


def run_winners_quality(
    scale: str | ScalePreset = "quick",
    *,
    instances: int | None = None,
    base_seed: int = 42,
    requirement_scales: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    ledger: RunLedger | None = None,
) -> ExperimentResult:
    """Measure truth-discovery precision using only auction winners.

    ``requirement_scales`` multiply every task's (capped) accuracy
    requirement; 1.0 is the paper's setting.
    """
    config = base_config(scale, instances=instances, base_seed=base_seed)
    requirement_scales = tuple(requirement_scales)
    key = result_run_key(
        "winners",
        config,
        requirement_scales=requirement_scales,
        requirement_cap=REQUIREMENT_CAP,
    )

    def build() -> ExperimentResult:
        datasets = config.datasets()
        auction = ReverseAuction()

        prepared = []
        for dataset in datasets:
            index = DatasetIndex(dataset)
            result = DATE(config.date).run(dataset, index=index)
            instance = SOACInstance.from_truth_discovery(dataset, result, index=index)
            instance = instance.with_capped_requirements(REQUIREMENT_CAP)
            prepared.append((dataset, result, instance))

        def point(scale_factor: float) -> dict[str, float]:
            all_total, winners_total, fraction_total = 0.0, 0.0, 0.0
            for dataset, full_result, instance in prepared:
                scaled = SOACInstance(
                    worker_ids=instance.worker_ids,
                    task_ids=instance.task_ids,
                    requirements=instance.requirements * scale_factor,
                    accuracy=instance.accuracy,
                    bids=instance.bids,
                    costs=instance.costs,
                    task_values=instance.task_values,
                )
                outcome = auction.run(scaled)
                winner_ids = set(outcome.winner_ids)
                winner_view = dataset.subset(worker_ids=winner_ids)
                winner_result = DATE(config.date).run(winner_view)
                all_total += full_result.precision()
                winners_total += winner_result.precision(dataset.truths)
                fraction_total += len(winner_ids) / max(instance.n_workers, 1)
            count = len(prepared)
            return {
                "all workers": all_total / count,
                "winners only": winners_total / count,
                "winner fraction": fraction_total / count,
            }

        return sweep_series(
            "winners",
            "Truth-discovery precision using only the auction's winners",
            "requirement scale",
            "precision / fraction",
            requirement_scales,
            point,
            meta={
                "paper_expectation": (
                    "extension: not in the paper; tests the SOAC premise that "
                    "covering the accuracy requirement preserves truth quality "
                    "— higher requirements buy more winners and close the gap"
                ),
                "requirement_cap": REQUIREMENT_CAP,
                "instances": config.instances,
                "base_seed": base_seed,
            },
        )

    return cached_result(ledger, key, build)
