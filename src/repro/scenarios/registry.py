"""Declarative scenarios: world × strategy stack × engine settings.

A :class:`Scenario` is everything needed to reproduce one adversarial
evaluation — the synthetic world shape, the ordered strategy stack, the
DATE hyperparameters, the evaluation protocol (instances, base seed,
detection threshold), and whether the auction stage runs too.  It is a
frozen, picklable value object: the parallel runner ships scenarios to
spawn workers, and ``scenario.world_for(k)`` is a pure function of the
scenario, so every instance is bit-reproducible anywhere.

The module registry (:func:`register_scenario` / :func:`get_scenario` /
:func:`list_scenarios`) is the single source of truth behind
``repro scenario list`` and ``repro scenario run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..core.config import DateConfig
from ..datasets.qatar_living import qatar_world_config
from ..datasets.synthetic import WorldConfig, generate_world
from ..errors import ConfigurationError, UnknownNameError
from ..rng import instance_seeds
from .strategies import (
    BidShading,
    ChainCopiers,
    CollusionRing,
    LazyWorkers,
    ScenarioWorld,
    Strategy,
    SybilAmplification,
    apply_strategies,
)

__all__ = [
    "Scenario",
    "UnknownScenarioError",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
]


class UnknownScenarioError(UnknownNameError):
    """A scenario name is not present in the registry."""


#: Default world: the quick-scale Qatar-Living-like shape used by the
#: experiment harness, small enough for CI smoke runs.
def _default_world() -> WorldConfig:
    return qatar_world_config(n_tasks=60, n_workers=40, target_claims=1200)


@dataclass(frozen=True)
class Scenario:
    """One fully specified adversarial evaluation."""

    name: str
    description: str
    strategies: tuple[Strategy, ...]
    world: WorldConfig = field(default_factory=_default_world)
    date: DateConfig = field(default_factory=lambda: DateConfig(copy_prob_r=0.8))
    instances: int = 3
    base_seed: int = 42
    #: Dependence-posterior threshold above which a pair (and both its
    #: workers) counts as flagged by the detector.
    detection_threshold: float = 0.8
    #: Also run the IMC2 auction per instance and report shading/welfare
    #: metrics (needed by bid-shading scenarios).
    auction: bool = False
    requirement_cap: float = 0.8
    #: Truth-discovery algorithm driving the primary estimate (any zoo
    #: member; the ``date_precision`` metric reports whichever runs).
    algorithm: str = "DATE"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.instances < 1:
            raise ConfigurationError("instances must be >= 1")
        if not 0.0 < self.detection_threshold < 1.0:
            raise ConfigurationError("detection_threshold must be in (0, 1)")

    def evolve(self, **changes: Any) -> "Scenario":
        """Return a copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    def instance_seed(self, k: int) -> int:
        """Root seed of the k-th instance (stable across config edits)."""
        if not 0 <= k < self.instances:
            raise ConfigurationError(
                f"instance index {k} out of range [0, {self.instances})"
            )
        return instance_seeds(self.base_seed, self.instances)[k]

    def world_for(self, k: int) -> ScenarioWorld:
        """Materialize the k-th instance: world + strategy stack.

        The world generates from the instance seed and the strategies
        apply under ``seed + 1`` (mirroring ``ExperimentConfig``'s
        world/copier split), so a pure world-parameter change never
        perturbs the adversary randomness and vice versa.
        """
        seed = self.instance_seed(k)
        dataset = generate_world(self.world, seed)
        return apply_strategies(dataset, self.strategies, seed + 1)


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, *, replace_existing: bool = False) -> Scenario:
    """Add a scenario to the registry (name collisions raise)."""
    if scenario.name in _REGISTRY and not replace_existing:
        raise ConfigurationError(
            f"scenario {scenario.name!r} is already registered"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up one scenario; raises :class:`UnknownScenarioError`."""
    scenario = _REGISTRY.get(name)
    if scenario is None:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    return scenario


def list_scenarios() -> list[Scenario]:
    """All registered scenarios, in registration order."""
    return list(_REGISTRY.values())


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------

register_scenario(
    Scenario(
        name="chain-copiers",
        description="Two transitive copy chains (A copies B copies C)",
        strategies=(ChainCopiers(n_chains=2, chain_length=3),),
    )
)

register_scenario(
    Scenario(
        name="collusion-ring",
        description="Five workers copy a shared hidden leader sheet",
        strategies=(CollusionRing(ring_size=5),),
    )
)

register_scenario(
    Scenario(
        name="sybil-amplification",
        description="Two profiles cloned under three sybil identities each",
        strategies=(SybilAmplification(n_profiles=2, clones_per_profile=3),),
    )
)

register_scenario(
    Scenario(
        name="lazy-spammers",
        description="Eight workers withhold effort and answer uniformly",
        strategies=(LazyWorkers(n_workers=8),),
    )
)

register_scenario(
    Scenario(
        name="bid-shading",
        description="Six workers underbid their true cost in the auction",
        strategies=(BidShading(n_workers=6, shade_factor=0.6),),
        auction=True,
    )
)

register_scenario(
    Scenario(
        name="mixed-adversaries",
        description="Chain copiers + a collusion ring + lazy spammers at once",
        strategies=(
            ChainCopiers(n_chains=1, chain_length=3),
            CollusionRing(ring_size=4),
            LazyWorkers(n_workers=4),
        ),
    )
)
