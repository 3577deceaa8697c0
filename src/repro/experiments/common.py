"""Shared infrastructure for the experiment runners.

Two scale presets parameterize every experiment:

- :data:`PAPER_SCALE` — the full Sec. VII-A setup (300 tasks, 120
  workers, 30 copiers, ≈6000 claims; the paper averages over 100
  instances, we default to 10 which already gives tight CIs);
- :data:`QUICK_SCALE` — a proportionally shrunk world for CI and
  pytest-benchmark runs, preserving the claim density, copier fraction
  and therefore the qualitative shapes.

:func:`truth_algorithms` builds fresh instances of the four
truth-discovery competitors sharing one :class:`DateConfig`, through
the zoo registry's ``make_discoverer``;
:func:`auction_algorithms` does the same for the three auction
competitors.

Runners that evaluate several algorithms or hyperparameter points on
the same dataset should structure the work *instance-first*: one
module-level (picklable) function builds the k-th dataset plus one
shared :class:`~repro.core.DatasetIndex` and evaluates every
algorithm/grid cell on it, and
:func:`~repro.simulation.runner.run_instances` fans the instances out
(``parallel=N`` bit-identical to serial) — the pattern of
``experiments.fig3`` and ``scenarios.runner.instance_metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..artifacts import RunKey
from ..baselines import GreedyAccuracy, GreedyBid
from ..core.config import DateConfig
from ..discovery import make_discoverer
from ..auction.reverse_auction import ReverseAuction
from ..errors import ConfigurationError
from ..simulation.config import ExperimentConfig

__all__ = [
    "PAPER_SCALE",
    "QUICK_SCALE",
    "ScalePreset",
    "auction_algorithms",
    "base_config",
    "instance_run_key",
    "resolve_scale",
    "result_run_key",
    "truth_algorithms",
]


@dataclass(frozen=True)
class ScalePreset:
    """A named experiment size."""

    name: str
    n_tasks: int
    n_workers: int
    n_copiers: int
    target_claims: int
    instances: int

    def to_config(
        self, *, base_seed: int = 42, date: DateConfig | None = None
    ) -> ExperimentConfig:
        """Materialize an :class:`ExperimentConfig` for this preset."""
        config = ExperimentConfig(
            n_tasks=self.n_tasks,
            n_workers=self.n_workers,
            n_copiers=self.n_copiers,
            target_claims=self.target_claims,
            instances=self.instances,
            base_seed=base_seed,
        )
        if date is not None:
            config = config.evolve(date=date)
        return config


PAPER_SCALE = ScalePreset(
    name="paper",
    n_tasks=300,
    n_workers=120,
    n_copiers=30,
    target_claims=6000,
    instances=10,
)

QUICK_SCALE = ScalePreset(
    name="quick",
    n_tasks=120,
    n_workers=60,
    n_copiers=15,
    target_claims=2400,
    instances=3,
)

_PRESETS = {preset.name: preset for preset in (PAPER_SCALE, QUICK_SCALE)}


def resolve_scale(scale: str | ScalePreset) -> ScalePreset:
    """Look up a preset by name, or pass a custom preset through."""
    if isinstance(scale, ScalePreset):
        return scale
    preset = _PRESETS.get(scale)
    if preset is None:
        raise ConfigurationError(
            f"unknown scale {scale!r}; expected one of {sorted(_PRESETS)} "
            "or a ScalePreset instance"
        )
    return preset


def base_config(
    scale: str | ScalePreset = "quick",
    *,
    instances: int | None = None,
    base_seed: int = 42,
    date: DateConfig | None = None,
    **overrides: Any,
) -> ExperimentConfig:
    """The standard way every runner builds its configuration."""
    preset = resolve_scale(scale)
    if instances is not None:
        preset = replace(preset, instances=instances)
    config = preset.to_config(base_seed=base_seed, date=date)
    if overrides:
        config = config.evolve(**overrides)
    return config


def instance_run_key(
    experiment_id: str, config: ExperimentConfig, **inputs: Any
) -> RunKey:
    """The per-instance ledger key of a runner (DESIGN.md §11).

    This is how runners *declare* their fingerprint inputs: the fully
    resolved :class:`ExperimentConfig` plus every extra knob the metric
    body reads (grids, assumed r, ...), as keyword arguments — never
    the runner's raw ad-hoc kwargs.  The instance *count* is
    deliberately normalized out: instance seeds derive from
    ``SeedSequence.spawn`` keyed by the index alone, so instance ``k``
    computes the same row in a 10- or 100-instance run, and growing
    ``--instances`` reuses the banked prefix.
    """
    return RunKey(
        experiment_id=experiment_id,
        payload={"config": config.evolve(instances=1), **inputs},
    )


def result_run_key(
    experiment_id: str,
    config: ExperimentConfig | None = None,
    **inputs: Any,
) -> RunKey:
    """The whole-result (and sweep-point) ledger key of a runner.

    Unlike :func:`instance_run_key` the instance count stays in the
    payload — a finished result aggregates over all instances, so a
    run with a different count is different work.
    """
    payload: dict[str, Any] = dict(inputs)
    if config is not None:
        payload["config"] = config
    return RunKey(experiment_id=experiment_id, payload=payload)


def truth_algorithms(
    date_config: DateConfig | None = None,
    *,
    include_ed: bool = True,
) -> dict[str, Any]:
    """Fresh instances of the Fig. 4/5 competitors, keyed by method name.

    ``include_ed=False`` skips the exponential ED baseline for runs
    where its cost is not the point.
    """
    names = ("MV", "NC", "DATE", "ED") if include_ed else ("MV", "NC", "DATE")
    return {name: make_discoverer(name, date_config=date_config) for name in names}


def auction_algorithms() -> dict[str, Any]:
    """Fresh instances of the Fig. 6/7 competitors, keyed by method name."""
    return {
        "RA": ReverseAuction(),
        "GA": GreedyAccuracy(),
        "GB": GreedyBid(),
    }
