"""Approximation-ratio study (extension beyond the paper's evaluation).

Theorem 3 bounds the reverse auction's social cost at ``2 e H_Ω`` times
the optimum.  The paper proves the bound but never measures it; this
experiment does, on instances small enough for the exact ILP
(:func:`repro.auction.optimal.solve_optimal`):

- x axis: instance index (each a fresh seeded world);
- series: greedy (RA) social cost, exact optimal social cost, and the
  realized ratio;
- meta: the theoretical bound per instance (typically orders of
  magnitude above the realized ratio — the greedy is far better in
  practice than in the worst case).
"""

from __future__ import annotations

from ..artifacts import RunLedger, cached_result
from ..auction.optimal import solve_optimal
from ..auction.properties import approximation_bound
from ..auction.reverse_auction import ReverseAuction
from ..auction.soac import SOACInstance
from ..core.date import DATE
from ..simulation.config import ExperimentConfig
from ..simulation.sweep import ExperimentResult
from .common import result_run_key
from .fig67 import REQUIREMENT_CAP

__all__ = ["run_approx"]


def run_approx(
    scale: str = "quick",
    *,
    instances: int | None = None,
    base_seed: int = 42,
    n_tasks: int = 24,
    n_workers: int = 24,
    n_copiers: int = 6,
    ledger: RunLedger | None = None,
) -> ExperimentResult:
    """Measure greedy-vs-optimal social cost on small seeded instances.

    The ``scale`` argument is accepted for registry uniformity but the
    world is always ILP-sized (its dimensions are explicit parameters).
    """
    config = ExperimentConfig(
        n_tasks=n_tasks,
        n_workers=n_workers,
        n_copiers=n_copiers,
        target_claims=n_tasks * n_workers // 3,
        instances=instances or 8,
        base_seed=base_seed,
    )
    key = result_run_key("approx", config, requirement_cap=REQUIREMENT_CAP)

    def build() -> ExperimentResult:
        auction = ReverseAuction()
        greedy_costs: list[float] = []
        optimal_costs: list[float] = []
        ratios: list[float] = []
        bounds: list[float] = []
        for k in range(config.instances):
            dataset = config.dataset_for(k)
            result = DATE(config.date).run(dataset)
            instance = SOACInstance.from_truth_discovery(dataset, result)
            instance = instance.with_capped_requirements(REQUIREMENT_CAP)
            greedy = auction.run(instance)
            optimal = solve_optimal(instance)
            greedy_costs.append(greedy.social_cost)
            optimal_costs.append(optimal.social_cost)
            ratios.append(
                greedy.social_cost / optimal.social_cost
                if optimal.social_cost > 0
                else 1.0
            )
            bounds.append(approximation_bound(instance))
        return ExperimentResult(
            experiment_id="approx",
            title="Greedy reverse auction versus exact ILP optimum",
            x_label="instance",
            y_label="social cost",
            x_values=tuple(range(config.instances)),
            series={
                "RA": tuple(greedy_costs),
                "OPT": tuple(optimal_costs),
                "ratio": tuple(ratios),
            },
            meta={
                "paper_expectation": (
                    "Theorem 3 guarantees ratio <= 2 e H_Omega; empirically "
                    "the greedy should sit near the optimum"
                ),
                "theoretical_bounds": bounds,
                "max_ratio": max(ratios),
                "mean_ratio": sum(ratios) / len(ratios),
                "base_seed": base_seed,
            },
        )

    return cached_result(ledger, key, build)
