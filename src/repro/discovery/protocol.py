"""The ``TruthDiscoverer`` contract every zoo member satisfies.

A truth-discovery algorithm is one class with one entry point that maps
a campaign to a :class:`~repro.core.date.TruthDiscoveryResult`:

- ``run(dataset, *, index=None, warm_start=None, lean=False)`` — runs
  on ``index`` when given (a cold :class:`~repro.core.indexing.
  DatasetIndex` or a restricted view, whose ``dataset`` is ``None``);
  ``dataset`` is read only to build the index when ``index`` is
  ``None``.  ``warm_start`` carries a previous result whose truths and
  worker reputations may seed the iteration (algorithms without a warm
  path accept and ignore it); ``lean`` permits skipping expensive
  result tables, with the invariant that truths, confidence and
  accuracies are bit-identical to the full run.
- ``__fingerprint__()`` — the algorithm's content identity (class +
  configuration + seed) for the run ledger: two discoverers with equal
  fingerprints compute bit-identical results on equal inputs.

Membership in the zoo is enforced by the conformance suite
(``tests/unit/test_discovery_conformance.py``): permutation
equivariance, unanimity agreement, seed determinism, lean/full and
telemetry bit-identity, and lossless ledger round-trips.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from ..core.date import TruthDiscoveryResult
from ..core.indexing import DatasetIndex
from ..types import Dataset

__all__ = ["TruthDiscoverer"]


@runtime_checkable
class TruthDiscoverer(Protocol):
    """Structural type of a zoo member (see the module docstring)."""

    method_name: str

    def run(
        self,
        dataset: Dataset | None,
        *,
        index: DatasetIndex | None = None,
        warm_start: TruthDiscoveryResult | None = None,
        lean: bool = False,
    ) -> TruthDiscoveryResult: ...

    def __fingerprint__(self) -> Any: ...
