"""Ablation experiment: quantify DATE's design choices (extension).

Registers :func:`repro.analysis.ablation.run_date_ablation` as an
experiment so the CLI and benches can regenerate the DESIGN.md §4
decision table: one precision series over the variant list, with the
per-variant confidence intervals in ``meta``.
"""

from __future__ import annotations

from ..analysis.ablation import ABLATION_VARIANTS, run_date_ablation
from ..artifacts import RunLedger, cached_result
from ..simulation.sweep import ExperimentResult
from .common import ScalePreset, base_config, result_run_key

__all__ = ["run_ablation"]


def run_ablation(
    scale: str | ScalePreset = "quick",
    *,
    instances: int | None = None,
    base_seed: int = 42,
    variants: dict[str, dict[str, object]] | None = None,
    ledger: RunLedger | None = None,
) -> ExperimentResult:
    """Run the DATE design-choice ablation on seeded instances."""
    config = base_config(scale, instances=instances, base_seed=base_seed)
    key = result_run_key(
        "ablation",
        config,
        variants=variants if variants is not None else ABLATION_VARIANTS,
    )

    def build() -> ExperimentResult:
        rows = run_date_ablation(config, variants=variants)
        return ExperimentResult(
            experiment_id="ablation",
            title="DATE design-choice ablation (precision per variant)",
            x_label="variant index",
            y_label="precision",
            x_values=tuple(range(len(rows))),
            series={"precision": tuple(row.precision.mean for row in rows)},
            meta={
                "variants": [row.variant for row in rows],
                "per_variant": {
                    row.variant: str(row.precision) for row in rows
                },
                "paper_expectation": (
                    "extension: not in the paper; quantifies the DESIGN.md §4 "
                    "interpretation choices"
                ),
                "instances": config.instances,
                "base_seed": base_seed,
                "available_variants": sorted(ABLATION_VARIANTS),
            },
        )

    return cached_result(ledger, key, build)
