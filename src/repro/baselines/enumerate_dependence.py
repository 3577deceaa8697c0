"""ED — the Enumerate-Dependence baseline (Sec. VII-A).

ED follows DATE except in step 2: instead of the greedy ordering that
discounts each worker only against its predecessors, ED *enumerates all
possible dependence configurations* between a worker and every other
co-provider of the same value.  Each co-provider pair may or may not
have an active copy edge; a worker's claim is independent exactly when
none of its outgoing edges is active.  Summing the probability mass of
every configuration is exponential in the group size — the cost the
paper measures in Fig. 5 (DATE runs in ≈42.6% of ED's time at n=120,
m=300).

Under the paper's independent-copying assumption the enumeration has a
closed form, ``Π (1 - r·P(i→i'|D))`` over all co-providers, which ED
uses above :attr:`EnumerateDependence.exact_enumeration_limit` workers
to stay finite on adversarial inputs.  Note the product ranges over
*all* co-providers, not just greedy-order predecessors, so ED discounts
copiers more aggressively than DATE — the source of its small precision
edge (+0.8% average in Fig. 4).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from ..core.config import DateConfig
from ..core.date import DATE
from ..core.engine import DependenceArrays
from ..core.indexing import ClaimArrays, DatasetIndex
from ..errors import ConfigurationError

__all__ = ["EnumerateDependence"]


def _enumerated_independence(edge_probs: list[float]) -> float:
    """Mass of the no-active-edge configuration by explicit enumeration.

    Iterates all ``2^k`` on/off assignments of the worker's possible
    copy edges and accumulates the mass of configurations in which the
    worker copied nobody.  Mathematically equal to ``Π (1 - p)`` — the
    point of ED is paying the enumeration cost, not changing the value.
    """
    independent_mass = 0.0
    for bits in product((False, True), repeat=len(edge_probs)):
        if any(bits):
            continue
        mass = 1.0
        for active, p in zip(bits, edge_probs):
            mass *= p if active else 1.0 - p
        independent_mass += mass
    return independent_mass


def _closed_form_independence(edge_probs: list[float]) -> float:
    result = 1.0
    for p in edge_probs:
        result *= 1.0 - p
    return result


class EnumerateDependence(DATE):
    """DATE with exhaustive dependence enumeration in step 2."""

    method_name = "ED"

    def __init__(
        self,
        config: DateConfig | None = None,
        *,
        exact_enumeration_limit: int = 16,
    ):
        super().__init__(config)
        if exact_enumeration_limit < 0:
            raise ConfigurationError("exact_enumeration_limit must be >= 0")
        self.exact_enumeration_limit = exact_enumeration_limit

    def __fingerprint__(self) -> dict:
        return {
            "date": self.config,
            "exact_enumeration_limit": self.exact_enumeration_limit,
        }

    def _independence_flat(
        self,
        index: DatasetIndex,
        arrays: ClaimArrays,
        dependence: DependenceArrays,
    ) -> np.ndarray:
        """Step 2 by enumeration: the exponential sweep, flat output.

        Steps 1 and 3 ride DATE's kernels; the per-worker
        ``2^k`` configuration sweep — the cost ED exists to measure —
        stays explicit, fed by the same O(pairs) slot gather as DATE's
        step 2 (the dense n_workers² matrix is never materialized; the
        diagonal gathers as 0, exactly as the dense matrix's zeros did).
        """
        r = self.config.copy_prob_r
        values = dependence.slot_values()
        indep = np.ones(arrays.n_claims, dtype=np.float64)
        for (m, claim_idx), slots in zip(
            arrays.multi_group_buckets, arrays.multi_group_slots
        ):
            # r * P(i -> i') for every ordered member pair of the group.
            edges = r * values.take(slots)
            if m - 1 <= self.exact_enumeration_limit:
                off_diag = ~np.eye(m, dtype=bool)
                for g in range(len(claim_idx)):
                    for k in range(m):
                        indep[claim_idx[g, k]] = _enumerated_independence(
                            edges[g, k][off_diag[k]].tolist()
                        )
            else:
                complements = 1.0 - edges
                complements[:, np.arange(m), np.arange(m)] = 1.0
                indep[claim_idx] = complements.prod(axis=2)
        return indep
