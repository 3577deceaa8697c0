"""Truth-discovery algorithm zoo behind the :class:`TruthDiscoverer` contract.

Seven members, each one class with one ``run`` entry point: DATE
(:mod:`repro.core.date`), the paper's MV/NC/ED baselines
(:mod:`repro.baselines`) and the three native algorithms exported here.
:func:`make_discoverer` builds any of them by name.

Membership bar: the conformance suite in
``tests/unit/test_discovery_conformance.py`` — every member passes
permutation equivariance, unanimity, seed determinism, lean/full and
telemetry bit-identity, and lossless ledger round-trips.
"""

from .dawid_skene import FastDawidSkene, FastDawidSkeneConfig
from .lca import LatentCredibilityAnalysis, LcaConfig
from .protocol import TruthDiscoverer
from .registry import (
    ALGORITHM_NAMES,
    AlgorithmSpec,
    UnknownAlgorithmError,
    canonical_algorithm,
    list_algorithms,
    make_discoverer,
)
from .truthfinder import TruthFinder, TruthFinderConfig

__all__ = [
    "ALGORITHM_NAMES",
    "AlgorithmSpec",
    "FastDawidSkene",
    "FastDawidSkeneConfig",
    "LatentCredibilityAnalysis",
    "LcaConfig",
    "TruthDiscoverer",
    "TruthFinder",
    "TruthFinderConfig",
    "UnknownAlgorithmError",
    "canonical_algorithm",
    "list_algorithms",
    "make_discoverer",
]
