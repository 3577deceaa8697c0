"""Step 3 of DATE (part 2): support counts and truth selection.

The support count of value ``v`` for task ``t_j`` (Alg. 1 line 28) is
the accuracy-weighted, dependence-discounted vote mass

    sc_j(v) = Σ_{i ∈ W_v^j} A_i^j · I_v^j(i)

and the estimated truth is the value with the largest support count.

Section IV-A (Eq. 21) adds cross-value support when different surface
strings mean the same thing (abbreviations, typos):

    sc'_j(v) = sc_j(v) + ρ · Σ_{v' ≠ v} sim(v, v') ·
               Σ_{i ∈ W_{v'} \\ W_v} A_i^j · I_{v'}^j(i)

with ``sim`` a similarity in [0, 1] and ``ρ`` the influence weight.
:func:`repro.core.engine.support_flat` computes both as segment sums
over the claim arrays; this module names the similarity callback type
that :class:`~repro.core.config.DateConfig` accepts.
"""

from __future__ import annotations

from collections.abc import Callable

__all__ = ["SimilarityFn"]

#: Similarity callback: (value, other_value) -> similarity in [0, 1].
SimilarityFn = Callable[[str, str], float]
