"""Step 1 of DATE: Bayesian pairwise dependence detection (Eqs. 7-15).

For every worker pair ``(a, b)`` that co-answered at least one task, we
compare three hypotheses about how their data came to be:

- ``a ⊥ b`` — both answered independently;
- ``a → b`` — ``a`` copies from ``b`` (each of ``a``'s values is copied
  with probability ``r``);
- ``b → a`` — the reverse direction.

The evidence is the partition of their shared tasks into ``T_s`` (same
value, equal to the current truth estimate), ``T_f`` (same value, not
the truth) and ``T_d`` (different values).  Sharing *false* values is
the smoking gun: it is rare under independence (Eq. 8) but likely under
copying (Eq. 12).  The three likelihoods (Eqs. 10, 14) combine with the
priors into directional posteriors via Bayes' rule (Eq. 15).

Priors: the paper writes ``P(i→i') = α`` and ``P(i⊥i') = 1 - α`` but
sweeps α to 0.9, which cannot be a three-hypothesis prior as written.
We use ``P(a→b) = P(b→a) = α/2`` and ``P(a⊥b) = 1 - α`` (valid for all
α in (0, 1)); see DESIGN.md §4.

:func:`repro.core.engine.pairwise_dependence_arrays` computes the
posteriors for every co-answering pair in one array pass; this module
holds the per-pair result type the public result tables hand out.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DependencePosterior"]


@dataclass(frozen=True, slots=True)
class DependencePosterior:
    """Posterior over the three dependence hypotheses for a worker pair.

    ``p_a_to_b`` is ``P(a→b | D)`` — the probability that the pair's
    *first* worker copies from the second; ``p_b_to_a`` the reverse.
    The probabilities sum to 1 with ``p_independent``.
    """

    p_a_to_b: float
    p_b_to_a: float

    @property
    def p_independent(self) -> float:
        """``P(a ⊥ b | D)``."""
        return max(0.0, 1.0 - self.p_a_to_b - self.p_b_to_a)

    @property
    def p_dependent(self) -> float:
        """Total dependence probability, either direction."""
        return self.p_a_to_b + self.p_b_to_a

    def directed(self, copier_first: bool) -> float:
        """``P(x→y | D)`` with ``x`` the copier: pair order if ``copier_first``."""
        return self.p_a_to_b if copier_first else self.p_b_to_a
