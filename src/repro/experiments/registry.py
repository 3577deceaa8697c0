"""Experiment registry: id -> runner, with declared capabilities.

The single source of truth for "what can be reproduced": the CLI, the
benchmark harness, and EXPERIMENTS.md all enumerate this table.

Each entry *declares* which harness features its runner supports via
``features`` — ``scale`` / ``instances`` / ``parallel`` / ``ledger`` —
so the CLI threads ``--scale``, ``--instances``, ``--parallel`` and the
run ledger from the declaration instead of maintaining ad-hoc id sets.
Runtime-measuring experiments (fig5, fig7) deliberately do not declare
``ledger``: a cached wall-clock series would replay stale hardware, so
they always recompute.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigurationError, UnknownExperimentError
from ..simulation.sweep import ExperimentResult
from .ablation import run_ablation
from .algo_accuracy import run_algo_accuracy
from .approx import run_approx
from .fig3 import run_fig3a, run_fig3b
from .fig45 import run_fig4a, run_fig4b, run_fig5a, run_fig5b
from .fig_adversary import run_adversary_f1, run_adversary_precision
from .fig67 import run_fig6a, run_fig6b, run_fig7a, run_fig7a_payments, run_fig7b
from .fig8 import run_fig8a, run_fig8b
from .table1 import run_table1
from .winners import run_winners_quality

__all__ = [
    "Experiment",
    "FEATURES",
    "get_experiment",
    "list_experiments",
    "run_experiment",
]

#: Every feature a runner may declare.
FEATURES = frozenset({"scale", "instances", "parallel", "ledger"})


@dataclass(frozen=True)
class Experiment:
    """A registered experiment and its declared harness capabilities."""

    experiment_id: str
    paper_reference: str
    summary: str
    runner: Callable[..., ExperimentResult]
    #: Harness keywords the runner accepts (subset of :data:`FEATURES`).
    features: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        unknown = self.features - FEATURES
        if unknown:
            raise ConfigurationError(
                f"experiment {self.experiment_id!r} declares unknown "
                f"features {sorted(unknown)}; known: {sorted(FEATURES)}"
            )

    def supports(self, feature: str) -> bool:
        return feature in self.features


_REGISTRY: dict[str, Experiment] = {}


def _register(
    experiment_id: str,
    paper_reference: str,
    summary: str,
    runner: Callable[..., ExperimentResult],
    *,
    features: str = "",
) -> None:
    _REGISTRY[experiment_id] = Experiment(
        experiment_id=experiment_id,
        paper_reference=paper_reference,
        summary=summary,
        runner=runner,
        features=frozenset(features.split()) if features else frozenset(),
    )


_register(
    "table1",
    "Table 1",
    "Motivating example: majority voting fooled by two copiers",
    run_table1,
    features="ledger",
)
_register(
    "fig3a",
    "Fig. 3a",
    "DATE precision vs initial accuracy ε and prior α",
    run_fig3a,
    features="scale instances parallel ledger",
)
_register(
    "fig3b",
    "Fig. 3b",
    "DATE precision vs assumed copy probability r",
    run_fig3b,
    features="scale instances parallel ledger",
)
_register(
    "fig4a",
    "Fig. 4a",
    "Precision vs number of tasks (MV/NC/DATE/ED)",
    run_fig4a,
    features="scale instances ledger",
)
_register(
    "fig4b",
    "Fig. 4b",
    "Precision vs number of workers (MV/NC/DATE/ED)",
    run_fig4b,
    features="scale instances ledger",
)
_register(
    "fig5a",
    "Fig. 5a",
    "Truth-discovery runtime vs number of tasks",
    run_fig5a,
    features="scale instances",
)
_register(
    "fig5b",
    "Fig. 5b",
    "Truth-discovery runtime vs number of workers",
    run_fig5b,
    features="scale instances",
)
_register(
    "fig6a",
    "Fig. 6a",
    "Social cost vs number of tasks (RA/GA/GB)",
    run_fig6a,
    features="scale instances ledger",
)
_register(
    "fig6b",
    "Fig. 6b",
    "Social cost vs number of workers (RA/GA/GB)",
    run_fig6b,
    features="scale instances ledger",
)
_register(
    "fig7a",
    "Fig. 7a",
    "Auction runtime vs number of tasks (RA/GA/GB)",
    run_fig7a,
    features="scale instances",
)
_register(
    "fig7b",
    "Fig. 7b",
    "Auction runtime vs number of workers (RA/GA/GB)",
    run_fig7b,
    features="scale instances",
)
_register(
    "fig7a-payments",
    "Fig. 7a (companion)",
    "Total auction payment vs number of tasks (deterministic twin of fig7a)",
    run_fig7a_payments,
    features="scale instances ledger",
)
_register(
    "fig8a",
    "Fig. 8a",
    "Truthfulness: winner utility vs declared bid",
    run_fig8a,
    features="scale ledger",
)
_register(
    "fig8b",
    "Fig. 8b",
    "Truthfulness: loser utility vs declared bid",
    run_fig8b,
    features="scale ledger",
)
_register(
    "approx",
    "Theorem 3 (extension)",
    "Empirical approximation ratio vs exact ILP optimum",
    run_approx,
    features="scale instances ledger",
)
_register(
    "ablation",
    "DESIGN.md §4 (extension)",
    "Precision ablation of DATE's design choices",
    run_ablation,
    features="scale instances ledger",
)
_register(
    "winners",
    "SOAC premise (extension)",
    "Truth-discovery precision using only auction winners",
    run_winners_quality,
    features="scale instances ledger",
)
_register(
    "algo-accuracy",
    "Algorithm zoo (extension)",
    "Precision of every TruthDiscoverer vs copier fraction",
    run_algo_accuracy,
    features="scale instances parallel ledger",
)
_register(
    "adv-f1",
    "Scenario lab (extension)",
    "Copier-detection F1 vs adversary fraction per strategy family",
    run_adversary_f1,
    features="scale instances parallel ledger",
)
_register(
    "adv-precision",
    "Scenario lab (extension)",
    "DATE precision vs adversary fraction per strategy family",
    run_adversary_precision,
    features="scale instances parallel ledger",
)


def list_experiments() -> list[Experiment]:
    """All registered experiments, in registration (paper) order."""
    return list(_REGISTRY.values())


def get_experiment(experiment_id: str) -> Experiment:
    """Look up one experiment; raises :class:`UnknownExperimentError`."""
    experiment = _REGISTRY.get(experiment_id)
    if experiment is None:
        raise UnknownExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(sorted(_REGISTRY))}"
        )
    return experiment


def run_experiment(experiment_id: str, **kwargs: Any) -> ExperimentResult:
    """Run one experiment by id with runner-specific keyword arguments.

    Feature keywords (``scale``, ``instances``, ``parallel``,
    ``ledger``) are validated against the experiment's declaration, so
    passing e.g. ``ledger=`` to a runtime-measuring runner fails with a
    clear message instead of a ``TypeError`` deep in the runner.
    """
    experiment = get_experiment(experiment_id)
    undeclared = sorted(
        name for name in kwargs if name in FEATURES and name not in experiment.features
    )
    if undeclared:
        raise ConfigurationError(
            f"experiment {experiment_id!r} does not support "
            f"{', '.join(undeclared)} (declared features: "
            f"{sorted(experiment.features) or 'none'})"
        )
    return experiment.runner(**kwargs)
