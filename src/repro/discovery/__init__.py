"""Truth-discovery algorithm zoo behind the :class:`TruthDiscoverer` contract.

Seven members, each one class with one ``run`` entry point: DATE
(:mod:`repro.core.date`), the paper's MV/NC/ED baselines
(:mod:`repro.baselines`) and the three native algorithms exported here.
:func:`make_discoverer` builds any of them by name.

Membership bar: the conformance suite in
``tests/unit/test_discovery_conformance.py`` — every member passes
unanimity, determinism, worker-permutation and value-relabel
equivariance, and arrival-order, lean/full and telemetry bit-identity.
"""

from .dawid_skene import FastDawidSkene
from .lca import LatentCredibilityAnalysis
from .protocol import TruthDiscoverer
from .registry import (
    ALGORITHM_NAMES,
    AlgorithmSpec,
    UnknownAlgorithmError,
    canonical_algorithm,
    list_algorithms,
    make_discoverer,
)
from .truthfinder import TruthFinder

__all__ = [
    "ALGORITHM_NAMES",
    "AlgorithmSpec",
    "FastDawidSkene",
    "LatentCredibilityAnalysis",
    "TruthDiscoverer",
    "TruthFinder",
    "UnknownAlgorithmError",
    "canonical_algorithm",
    "list_algorithms",
    "make_discoverer",
]
