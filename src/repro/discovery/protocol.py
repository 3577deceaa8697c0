"""The ``TruthDiscoverer`` contract every zoo member satisfies.

A truth-discovery algorithm is one class with a ``method_name`` and one
entry point that maps a campaign to a
:class:`~repro.core.date.TruthDiscoveryResult`:

- ``run(dataset, *, index=None, lean=False)`` — runs on ``index`` when
  given (a cold :class:`~repro.core.indexing.DatasetIndex` or an
  extended one); ``dataset`` is read only to build the index when
  ``index`` is ``None``, so callers holding an index pass
  ``run(None, index=index)``.  ``lean=True`` leaves the result's
  ``support`` and ``dependence`` empty; truths, confidence and
  accuracies are bit-identical to the full run.

Every member ends in one call of :func:`~repro.core.date.build_result`,
handing it its arrays (truth codes, per-claim accuracies, per-group
posteriors and support, and DATE/ED's pair posteriors) and ``lean``,
so every result is assembled the same way.

A member's hyperparameters are fixed by its constructor arguments
(DATE, NC and ED take a :class:`~repro.core.config.DateConfig`) or are
module constants (MV and the three natives take none).  Membership in
the zoo is enforced by the conformance suite
(``tests/unit/test_discovery_conformance.py``): unanimity agreement,
determinism, worker-permutation and value-relabel equivariance, and
arrival-order, lean/full, prebuilt-index and telemetry bit-identity,
and empty support and dependence on lean runs.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

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
        lean: bool = False,
    ) -> TruthDiscoveryResult: ...
