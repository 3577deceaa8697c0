"""Exact SOAC optimum via integer linear programming.

The SOAC problem (Eqs. 4-6) is NP-hard, but small instances solve
quickly with a branch-and-bound MILP solver; we use
:func:`scipy.optimize.milp` (HiGHS).  The experiment harness uses this
to measure the greedy mechanism's *empirical* approximation ratio
against the theoretical ``2 e H_Ω`` bound (Lemma 5) — an extension
beyond the paper's own evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from .soac import SOACInstance

__all__ = ["OptimalSolution", "solve_optimal"]


@dataclass(frozen=True)
class OptimalSolution:
    """An exact optimum of one SOAC instance.

    ``objective`` minimizes the declared bids (the auction's view);
    ``social_cost`` re-prices the chosen set at true costs for
    comparison with :attr:`AuctionOutcome.social_cost`.
    """

    winner_ids: tuple[str, ...]
    winner_indexes: tuple[int, ...]
    objective: float
    social_cost: float

    @property
    def n_winners(self) -> int:
        return len(self.winner_ids)


def solve_optimal(
    instance: SOACInstance,
    *,
    use_costs: bool = False,
    time_limit: float | None = 30.0,
) -> OptimalSolution:
    """Solve ``min Σ price_i x_i  s.t.  A^T x ≥ Θ, x ∈ {0,1}^n`` exactly.

    ``use_costs`` optimizes true costs instead of declared bids (they
    coincide under truthful bidding).  Raises
    :class:`InfeasibleCoverageError` for uncoverable instances and
    :class:`ReproError` if the solver fails (for example on hitting
    ``time_limit``).
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    instance.check_feasible()
    prices = instance.costs if use_costs else instance.bids
    n = instance.n_workers

    constraint = LinearConstraint(
        instance.accuracy.T,
        lb=instance.requirements,
        ub=np.full(instance.n_tasks, np.inf),
    )
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = milp(
        c=np.asarray(prices, dtype=np.float64),
        constraints=[constraint],
        integrality=np.ones(n),
        bounds=Bounds(lb=np.zeros(n), ub=np.ones(n)),
        options=options,
    )
    if not result.success:
        raise ReproError(f"MILP solver failed: {result.message}")
    chosen = tuple(int(i) for i in np.nonzero(np.round(result.x) >= 1)[0])
    return OptimalSolution(
        winner_ids=tuple(instance.worker_ids[i] for i in chosen),
        winner_indexes=chosen,
        objective=float(result.fun),
        social_cost=instance.social_cost(chosen),
    )
