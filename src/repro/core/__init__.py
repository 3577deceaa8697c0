"""The paper's primary contribution: DATE truth discovery (Alg. 1).

Submodules map one-to-one onto the steps of the algorithm:

- :mod:`repro.core.indexing` — integer-indexed dataset views shared by
  every step;
- :mod:`repro.core.dependence` — step 1's model, pairwise copier
  detection (Eqs. 7-15), and its per-pair result type;
- :mod:`repro.core.accuracy` — step 3's model, value posteriors and
  worker accuracies (Eqs. 17-20);
- :mod:`repro.core.support` — dependence-discounted support counts and
  the similarity adjustment of Sec. IV-A (Eq. 21, Alg. 1 line 28);
- :mod:`repro.core.falsedist` — false-value distribution models,
  including the non-uniform generalization of Sec. IV-B (Eqs. 22-23);
- :mod:`repro.core.engine` — the kernels: steps 1-3 (and step 2's
  greedy independence ordering, Eq. 16) as numpy passes over the
  integer-coded claim arrays
  (:class:`~repro.core.indexing.ClaimArrays`; DESIGN.md §7);
- :mod:`repro.core.date` — the iterative driver (Alg. 1).

The scalar per-element transcriptions of each step are kept as test
oracles under tests/oracles/.
"""

from .config import DateConfig
from .date import DATE, TruthDiscoveryResult, discover_truth
from .dependence import DependencePosterior
from .engine import DependenceArrays
from .falsedist import (
    EmpiricalFalseValues,
    FalseValueDistribution,
    UniformFalseValues,
    ZipfFalseValues,
)
from .indexing import ClaimArrays, DatasetIndex

__all__ = [
    "DATE",
    "ClaimArrays",
    "DateConfig",
    "DatasetIndex",
    "DependenceArrays",
    "DependencePosterior",
    "EmpiricalFalseValues",
    "FalseValueDistribution",
    "TruthDiscoveryResult",
    "UniformFalseValues",
    "ZipfFalseValues",
    "discover_truth",
]
