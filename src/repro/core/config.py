"""Configuration for the DATE algorithm (Alg. 1 inputs).

:class:`DateConfig` bundles the paper's hyperparameters with the
modelling choices documented in DESIGN.md §4.  All values are validated
eagerly so a bad sweep fails before any simulation time is spent.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import Any

from ..errors import ConfigurationError
from .falsedist import FalseValueDistribution, UniformFalseValues
from .support import SimilarityFn

__all__ = ["DateConfig"]


@dataclass(frozen=True)
class DateConfig:
    """Hyperparameters of DATE.

    Parameters (paper defaults from Sec. VII-A in parentheses):

    copy_prob_r:
        Assumed probability ``r`` that a copier's value is copied (0.4).
    initial_accuracy:
        Initial accuracy ``ε`` assigned to every (worker, answered task)
        pair (0.5).
    prior_alpha:
        A-priori total dependence probability ``α`` per worker pair
        (0.2); split evenly over the two copy directions.
    max_iterations:
        Iteration cap ``φ`` (100).
    accuracy_clamp:
        Open interval accuracies are clamped into before entering any
        likelihood, keeping odds ratios finite.
    granularity:
        ``"worker"`` (one accuracy per worker, Eq. 17 averaged over its
        tasks — default) or ``"task"`` (per-task posteriors).
    ordering:
        Greedy ordering rule of step 2, ``"dependent_first"`` (paper
        text) or ``"independent_first"`` (pseudocode variant).
    discount_mode:
        Dependence probability used in the Eq. 16 discount product:
        ``"directed"`` (the equation as written) or ``"total"`` (either
        copy direction — required when copier and source submit
        identical data and the direction is unidentifiable; see
        :func:`repro.core.engine.independence_flat` and DESIGN.md §4).
    discounted_posterior:
        When true (default), value posteriors weight each vote's
        log-odds by its independence probability (Dong et al. [15]),
        so detected copiers cannot corrupt the accuracy estimates; when
        false, use Alg. 1 line 23 exactly as written.  See
        :func:`repro.core.engine.discounted_posterior_groups`.
    false_values:
        False-value distribution model (uniform by default; Sec. IV-B).
    similarity / similarity_weight:
        Optional Sec. IV-A value-similarity adjustment (ρ).
    """

    copy_prob_r: float = 0.4
    initial_accuracy: float = 0.5
    prior_alpha: float = 0.2
    max_iterations: int = 100
    accuracy_clamp: tuple[float, float] = (0.01, 0.99)
    granularity: str = "worker"
    ordering: str = "dependent_first"
    discount_mode: str = "directed"
    discounted_posterior: bool = True
    false_values: FalseValueDistribution = field(default_factory=UniformFalseValues)
    similarity: SimilarityFn | None = None
    similarity_weight: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.copy_prob_r < 1.0:
            raise ConfigurationError(
                f"copy_prob_r must be in (0, 1), got {self.copy_prob_r}"
            )
        if not 0.0 < self.initial_accuracy < 1.0:
            raise ConfigurationError(
                f"initial_accuracy must be in (0, 1), got {self.initial_accuracy}"
            )
        if not 0.0 < self.prior_alpha < 1.0:
            raise ConfigurationError(
                f"prior_alpha must be in (0, 1), got {self.prior_alpha}"
            )
        if (
            not isinstance(self.max_iterations, Integral)
            or isinstance(self.max_iterations, bool)
            or self.max_iterations < 1
        ):
            raise ConfigurationError(
                f"max_iterations must be an int >= 1, got {self.max_iterations!r}"
            )
        clamp = self.accuracy_clamp
        if (
            isinstance(clamp, (str, bytes))
            or not isinstance(clamp, Sequence)
            or len(clamp) != 2
            or not all(
                isinstance(bound, Real) and not isinstance(bound, bool)
                for bound in clamp
            )
        ):
            raise ConfigurationError(
                f"accuracy_clamp must be a pair of numbers (lo, hi), got {clamp!r}"
            )
        lo, hi = clamp
        if not 0.0 < lo < hi < 1.0:
            raise ConfigurationError(
                f"accuracy_clamp must satisfy 0 < lo < hi < 1, got {self.accuracy_clamp}"
            )
        if self.granularity not in ("worker", "task"):
            raise ConfigurationError(
                f"granularity must be 'worker' or 'task', got {self.granularity!r}"
            )
        if self.ordering not in ("dependent_first", "independent_first"):
            raise ConfigurationError(
                "ordering must be 'dependent_first' or 'independent_first', "
                f"got {self.ordering!r}"
            )
        if self.discount_mode not in ("directed", "total"):
            raise ConfigurationError(
                f"discount_mode must be 'directed' or 'total', got "
                f"{self.discount_mode!r}"
            )
        if not isinstance(self.false_values, FalseValueDistribution):
            raise ConfigurationError(
                "false_values must be a FalseValueDistribution instance"
            )
        if not 0.0 <= self.similarity_weight <= 1.0:
            raise ConfigurationError(
                f"similarity_weight must be in [0, 1], got {self.similarity_weight}"
            )
        if self.similarity_weight > 0.0 and self.similarity is None:
            raise ConfigurationError(
                "similarity_weight > 0 requires a similarity function"
            )

    def evolve(self, **changes: Any) -> "DateConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)
