"""Figs. 6 and 7 — social cost and running time of the auction
algorithms versus the number of tasks and workers.

Paper findings (Sec. VII-C):

- Fig. 6a: social cost rises with tasks (more winners needed); the
  Reverse Auction (RA) is cheapest — on average 59.4% below GA and
  40.2% below GB.
- Fig. 6b: social cost falls with workers (more cheap, accurate
  workers to choose from), same ordering.
- Fig. 7: auction running time rises with both dimensions; RA
  (O(n³m)) is the slowest, then GA (O(n³)), then GB (O(n²)).

Each sweep point runs DATE once per instance to obtain the accuracy
matrix, then runs all three auctions on the same SOAC instance, so
cost and time differences are purely due to the auction.  All three
select on one cover (:class:`~repro.auction.engine.GreedyCover`) and
differ only in each round's pick, so in Fig. 7 RA's extra time over
GA and GB is its critical-payment phase.  Requirements
are capped at 80% of each task's available accuracy so sparse sweep
points stay feasible (see ``SOACInstance.with_capped_requirements``).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..artifacts import RunLedger, cached_result
from ..auction.soac import SOACInstance
from ..core.date import DATE
from ..core.indexing import DatasetIndex
from ..simulation.sweep import ExperimentResult, sweep_series
from ..simulation.timing import timed
from .common import (
    ScalePreset,
    auction_algorithms,
    base_config,
    resolve_scale,
    result_run_key,
)

__all__ = [
    "run_fig6a",
    "run_fig6b",
    "run_fig7a",
    "run_fig7a_payments",
    "run_fig7b",
]

#: Feasibility cap applied at every sweep point.
REQUIREMENT_CAP = 0.8


def _grids(preset: ScalePreset, vary: str) -> tuple[int, ...]:
    top = preset.n_tasks if vary == "tasks" else preset.n_workers
    fractions = (1 / 3, 1 / 2, 2 / 3, 5 / 6, 1.0)
    return tuple(int(round(top * f)) for f in fractions)


def _run(
    experiment_id: str,
    title: str,
    metric: str,
    vary: str,
    scale: str | ScalePreset,
    instances: int | None,
    base_seed: int,
    grid: Sequence[int] | None,
    paper_expectation: str,
    ledger: RunLedger | None = None,
) -> ExperimentResult:
    preset = resolve_scale(scale)
    config = base_config(preset, instances=instances, base_seed=base_seed)
    if grid is None:
        grid = _grids(preset, vary)
    grid = tuple(grid)
    # Outcome metrics are deterministic, so they cache under the full
    # declared sweep description; runtime metrics never take a ledger
    # (a cached wall-clock is meaningless).
    key = (
        result_run_key(
            experiment_id,
            config,
            vary=vary,
            metric=metric,
            grid=grid,
            requirement_cap=REQUIREMENT_CAP,
        )
        if ledger is not None
        else None
    )

    def build() -> ExperimentResult:
        datasets = config.datasets()

        # Cache per (instance, size): SOAC instance built from one DATE run.
        cache: dict[tuple[int, int], SOACInstance] = {}

        def soac_for(k: int, size: int) -> SOACInstance:
            key = (k, size)
            if key not in cache:
                full = datasets[k]
                if vary == "tasks":
                    ds = full.subset(task_ids=[t.task_id for t in full.tasks[:size]])
                else:
                    ds = full.subset(
                        worker_ids=[w.worker_id for w in full.workers[:size]]
                    )
                index = DatasetIndex(ds)
                result = DATE(config.date).run(ds, index=index)
                instance = SOACInstance.from_truth_discovery(ds, result, index=index)
                cache[key] = instance.with_capped_requirements(REQUIREMENT_CAP)
            return cache[key]

        def point(size: float) -> dict[str, float]:
            size = int(size)
            sums: dict[str, float] = {}
            for k in range(len(datasets)):
                instance = soac_for(k, size)
                for name, algorithm in auction_algorithms().items():
                    outcome, seconds = timed(algorithm.run, instance)
                    if metric == "social_cost":
                        value = outcome.social_cost
                    elif metric == "total_payment":
                        value = outcome.total_payment
                    else:
                        value = seconds
                    sums[name] = sums.get(name, 0.0) + value
            return {name: total / len(datasets) for name, total in sums.items()}

        return sweep_series(
            experiment_id,
            title,
            f"number of {vary}",
            {
                "social_cost": "social cost",
                "total_payment": "total payment",
            }.get(metric, "seconds"),
            grid,
            point,
            meta={
                "paper_expectation": paper_expectation,
                "requirement_cap": REQUIREMENT_CAP,
                "instances": config.instances,
                "base_seed": base_seed,
                "scale": preset.name,
            },
            ledger=ledger,
            key=key,
        )

    return cached_result(ledger, key, build)


def run_fig6a(
    scale: str | ScalePreset = "quick",
    *,
    instances: int | None = None,
    base_seed: int = 42,
    task_grid: Sequence[int] | None = None,
    ledger: RunLedger | None = None,
) -> ExperimentResult:
    """Social cost vs. number of tasks for RA / GA / GB."""
    return _run(
        "fig6a",
        "Social cost versus number of tasks",
        "social_cost",
        "tasks",
        scale,
        instances,
        base_seed,
        task_grid,
        "social cost rises with tasks; RA cheapest (avg -59.4% vs GA, "
        "-40.2% vs GB)",
        ledger=ledger,
    )


def run_fig6b(
    scale: str | ScalePreset = "quick",
    *,
    instances: int | None = None,
    base_seed: int = 42,
    worker_grid: Sequence[int] | None = None,
    ledger: RunLedger | None = None,
) -> ExperimentResult:
    """Social cost vs. number of workers for RA / GA / GB."""
    return _run(
        "fig6b",
        "Social cost versus number of workers",
        "social_cost",
        "workers",
        scale,
        instances,
        base_seed,
        worker_grid,
        "social cost falls with workers; RA cheapest throughout",
        ledger=ledger,
    )


def run_fig7a(
    scale: str | ScalePreset = "quick",
    *,
    instances: int | None = None,
    base_seed: int = 42,
    task_grid: Sequence[int] | None = None,
) -> ExperimentResult:
    """Auction running time vs. number of tasks for RA / GA / GB."""
    return _run(
        "fig7a",
        "Auction running time versus number of tasks",
        "runtime",
        "tasks",
        scale,
        instances,
        base_seed,
        task_grid,
        "running time rises with tasks; RA (O(n^3 m)) slowest, "
        "GA (O(n^3)) next, GB (O(n^2)) fastest",
    )


def run_fig7b(
    scale: str | ScalePreset = "quick",
    *,
    instances: int | None = None,
    base_seed: int = 42,
    worker_grid: Sequence[int] | None = None,
) -> ExperimentResult:
    """Auction running time vs. number of workers for RA / GA / GB."""
    return _run(
        "fig7b",
        "Auction running time versus number of workers",
        "runtime",
        "workers",
        scale,
        instances,
        base_seed,
        worker_grid,
        "running time rises with workers; RA slowest, GB fastest",
    )


def run_fig7a_payments(
    scale: str | ScalePreset = "quick",
    *,
    instances: int | None = None,
    base_seed: int = 42,
    task_grid: Sequence[int] | None = None,
    ledger: RunLedger | None = None,
) -> ExperimentResult:
    """Total payment vs. number of tasks — fig7a's deterministic twin.

    Fig. 7a itself plots wall-clock, which no golden fixture can pin;
    this companion runs the *same sweep* (same datasets, same DATE
    runs, same auctions) but records each method's total payment, so
    the whole fig6/fig7 auction pipeline has a seed-reproducible series
    for regression pinning (tests/golden/fig7a_payments.json).
    """
    return _run(
        "fig7a-payments",
        "Total auction payment versus number of tasks",
        "total_payment",
        "tasks",
        scale,
        instances,
        base_seed,
        task_grid,
        "companion series (not a paper figure): RA's critical payments "
        "exceed its bids but its winner sets stay cheap; payments rise "
        "with tasks like the social cost",
        ledger=ledger,
    )
