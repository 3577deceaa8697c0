"""The algorithm zoo registry: names → :class:`TruthDiscoverer` factories.

Seven members ship with the repo, each one class built directly: the
paper's four engines (DATE, MV, NC, ED) plus three numpy-native
implementations (TruthFinder, Fast Dawid–Skene, SimpleLCA).  Lookup is case-insensitive;
:func:`make_discoverer` is the single construction point used by the
``algo-accuracy`` experiment, the scenario lab, the streaming campaign
store and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..baselines import EnumerateDependence, MajorityVote, NoCopier
from ..core.config import DateConfig
from ..core.date import DATE
from ..errors import UnknownNameError
from .dawid_skene import FastDawidSkene
from .lca import LatentCredibilityAnalysis
from .protocol import TruthDiscoverer
from .truthfinder import TruthFinder

__all__ = [
    "ALGORITHM_NAMES",
    "AlgorithmSpec",
    "UnknownAlgorithmError",
    "canonical_algorithm",
    "list_algorithms",
    "make_discoverer",
]


class UnknownAlgorithmError(UnknownNameError):
    """Raised when an algorithm name is not in the zoo."""


@dataclass(frozen=True)
class AlgorithmSpec:
    """One zoo entry: canonical name, one-line summary, and a factory."""

    name: str
    summary: str
    factory: Callable[[DateConfig | None], TruthDiscoverer]


_SPECS: tuple[AlgorithmSpec, ...] = (
    AlgorithmSpec(
        "DATE",
        "Paper Alg. 1: joint source dependence + truth EM (the reproduction target).",
        DATE,
    ),
    AlgorithmSpec(
        "MV",
        "One-shot majority voting (ties to the lexicographically first value).",
        lambda _: MajorityVote(),
    ),
    AlgorithmSpec(
        "NC",
        "No-copier ablation: accuracy-only iteration, dependence term dropped.",
        NoCopier,
    ),
    AlgorithmSpec(
        "ED",
        "Exact dependence enumeration over small source sets (DATE upper bound).",
        EnumerateDependence,
    ),
    AlgorithmSpec(
        "TruthFinder",
        "Yin et al.: iterative source trust x claim confidence with implication damping.",
        lambda _: TruthFinder(),
    ),
    AlgorithmSpec(
        "FDS",
        "Fast Dawid-Skene: hard EM over per-worker confusion matrices.",
        lambda _: FastDawidSkene(),
    ),
    AlgorithmSpec(
        "LCA",
        "SimpleLCA: one-parameter latent credibility EM (Pasternack & Roth).",
        lambda _: LatentCredibilityAnalysis(),
    ),
)

_BY_KEY = {spec.name.lower(): spec for spec in _SPECS}

#: Canonical names of every zoo member, in registry order.
ALGORITHM_NAMES: tuple[str, ...] = tuple(spec.name for spec in _SPECS)


def _spec(name: str) -> AlgorithmSpec:
    try:
        return _BY_KEY[name.strip().lower()]
    except KeyError:
        known = ", ".join(ALGORITHM_NAMES)
        raise UnknownAlgorithmError(
            f"unknown truth-discovery algorithm {name!r} (known: {known})"
        ) from None


def canonical_algorithm(name: str) -> str:
    """Normalize ``name`` to its canonical registry spelling."""
    return _spec(name).name


def list_algorithms() -> tuple[AlgorithmSpec, ...]:
    """Every zoo entry, in registry order."""
    return _SPECS


def make_discoverer(
    name: str, *, date_config: DateConfig | None = None
) -> TruthDiscoverer:
    """Construct the zoo member called ``name`` (case-insensitive).

    ``date_config`` parameterizes the paper's engines (DATE, NC, ED);
    the other members have no settable hyperparameters.
    """
    return _spec(name).factory(date_config)
