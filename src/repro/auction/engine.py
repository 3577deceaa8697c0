"""Array-native reverse auction: one greedy cover + prefix-shared payments.

This module is the auction twin of :mod:`repro.core.engine`: Alg. 2 as
fleet-wide numpy passes, pinned against the scalar per-worker
transcription in tests/oracles/auction.py.  Three ideas carry the speedup:

1. **Batched winner selection.**  The scalar loop evaluates
   ``Σ_j min(Θ'_j, A_k^j)`` one worker at a time, every round.  Here
   the whole fleet's capped coverages live in one dense ``(n, m)``
   array ``capped = np.minimum(residual, accuracy)`` whose row sums are
   the per-worker marginals (:class:`GreedyCover`), and each round is
   one masked pick over them.  RA, GA and GB all select on this cover;
   they differ only in the pick (bid/marginal argmin, largest marginal,
   lowest bid).

2. **Incremental residual updates.**  A selected winner changes the
   residual only on its own task columns (CSR row of
   :class:`~repro.auction.soac.SparseAccuracy`), so only those columns
   of ``capped`` are refreshed and only the worker rows touching them
   (CSC columns) get their marginal recomputed.  Rows the winner does
   not intersect keep their stored sums.

3. **Prefix-shared critical payments.**  The payment rerun over
   ``W \\ {i}`` makes *identical* choices to the main run until the
   round that selected ``i`` — before that round, ``i`` was available
   but never the argmin, so removing it cannot change any argmin.  The
   main run therefore memoizes its per-round residuals and fleet
   marginals once (:class:`CoverTrace`), every winner's rerun reads its
   shared-prefix payment terms straight out of that trace, and only the
   *continuation* from the fork round onward is executed — as a lazy
   greedy over a heap seeded from the trace's fork-round marginals.
   The residual only shrinks, so every marginal is non-increasing and,
   for finite non-negative bids, every ``bid / marginal`` ratio is
   non-decreasing; a stale heap key is a lower bound on the current
   ratio, and only stale entries that reach the top are re-evaluated.

Equality contract: every quantity that reaches an output or a decision
is computed by the same floating-point expression as the oracle —
marginals as dense capped-row sums (numpy's pairwise row reduction is
bit-identical whether one row or a whole matrix is summed; continuations
use the oracle's own ``min(residual, A_k).sum()``), residual updates
by the same elementwise formula, payment terms as
``(b_k · own) / other`` in the same association order.  Winners,
selection order, payments, and monopolists are therefore *exactly*
equal, not approximately (DESIGN.md §10; pinned by
tests/property/test_property_auction_backends.py and gated ≥5× on the
payment phase by benchmarks/test_auction_bench.py).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import InfeasibleCoverageError
from .soac import COVERAGE_TOL, SOACInstance

__all__ = ["CoverTrace", "GreedyCover", "batched_greedy_cover", "run_auction"]


@dataclass(frozen=True)
class CoverTrace:
    """Memoized state of one greedy cover run.

    ``residuals[r]`` is the residual requirement vector *before* round
    ``r``'s selection and ``scores[r]`` the fleet-wide marginal
    coverages at that residual — exactly the quantities every payment
    rerun needs for the rounds it shares with the main run.
    """

    winners: np.ndarray  # (R,) worker index selected at each round
    residuals: np.ndarray  # (R, m) residual before each selection
    scores: np.ndarray  # (R, n) fleet marginals before each selection

    @property
    def n_rounds(self) -> int:
        return len(self.winners)


class GreedyCover:
    """One greedy cover in flight: dense capped sums, sparse updates.

    The selection phase of every auction (RA, GA, GB): each round the
    auction reads ``scores`` over the mask :meth:`rounds` yields, picks
    one worker by its own rule and calls :meth:`apply`.
    """

    def __init__(self, instance: SOACInstance):
        self.instance = instance
        self.sparse = instance.sparse_accuracy
        self.residual = instance.requirements.astype(np.float64).copy()
        # capped[k, j] == min(residual[j], accuracy[k, j]) at all times;
        # row sums are the marginals.  Summing the full matrix along
        # axis 1 is bit-identical to summing each row alone, so these
        # scores equal the reference's per-worker sums exactly.
        self.capped = np.minimum(self.residual[None, :], instance.accuracy)
        self.scores = self.capped.sum(axis=1)
        self.eligible = np.ones(instance.n_workers, dtype=bool)
        self.selected: list[int] = []

    def infeasible(self) -> InfeasibleCoverageError:
        """The error for an open cover that no pick can extend."""
        return InfeasibleCoverageError(
            self.instance.uncovered_tasks(sorted(self.selected))
        )

    def rounds(self) -> Iterator[np.ndarray]:
        """Yield the useful workers' mask once per round until covered.

        A useful worker is eligible and still adds more than
        ``COVERAGE_TOL``; the caller applies one of them before the next
        round.  Raises :class:`InfeasibleCoverageError` when coverage is
        still open and no worker is useful.
        """
        while self.residual.sum() > COVERAGE_TOL:
            useful = self.eligible & (self.scores > COVERAGE_TOL)
            if not useful.any():
                raise self.infeasible()
            yield useful

    def apply(self, winner: int) -> None:
        """Subtract the winner's capped coverage; refresh affected state.

        Only the winner's still-uncovered task columns change, and only
        workers with positive accuracy on those columns get their
        marginal recomputed — everyone else's stored row sum is already
        the value a from-scratch pass would produce.  A winner that is
        not useful (the pick had no candidate) would repeat the round
        forever, so it raises :class:`InfeasibleCoverageError`.
        """
        if not (self.eligible[winner] and self.scores[winner] > COVERAGE_TOL):
            raise self.infeasible()
        self.eligible[winner] = False
        self.selected.append(winner)
        touched = _subtract_coverage(self.instance, self.residual, winner)
        if touched.size == 0:
            return
        self.capped[:, touched] = np.minimum(
            self.residual[touched][None, :], self.instance.accuracy[:, touched]
        )
        affected = self.sparse.workers_on(touched)
        self.scores[affected] = self.capped[affected].sum(axis=1)


def _subtract_coverage(
    instance: SOACInstance, residual: np.ndarray, winner: int
) -> np.ndarray:
    """Subtract one winner's capped coverage from ``residual`` in place.

    Same elementwise formula as the reference, applied only to the
    winner's still-uncovered task columns (everywhere else it is the
    identity).  Returns those columns.
    """
    cols = instance.sparse_accuracy.tasks_of(winner)
    touched = cols[residual[cols] > 0.0]
    if touched.size:
        residual[touched] = np.maximum(
            residual[touched]
            - np.minimum(residual[touched], instance.accuracy[winner, touched]),
            0.0,
        )
    return touched


def batched_greedy_cover(instance: SOACInstance) -> CoverTrace:
    """Alg. 2's selection loop over the whole fleet, with a full trace.

    Each round picks the lowest ``bid / marginal``; ``argmin`` returns
    the first minimum, the scalar loop's ascending-index tie-break.  A
    ratio that overflows to ``inf`` never beats the scalar loop's
    starting best of ``inf``, so a round of all-``inf`` ratios raises.
    """
    cover = GreedyCover(instance)
    residuals: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    for useful in cover.rounds():
        ratios = np.full(len(useful), np.inf)
        np.divide(instance.bids, cover.scores, out=ratios, where=useful)
        best = int(np.argmin(ratios))
        if ratios[best] == np.inf:
            raise cover.infeasible()
        residuals.append(cover.residual.copy())
        scores.append(cover.scores.copy())
        cover.apply(best)
    rounds = len(cover.selected)
    return CoverTrace(
        winners=np.asarray(cover.selected, dtype=np.int64),
        residuals=np.asarray(residuals).reshape(rounds, instance.n_tasks),
        scores=np.asarray(scores).reshape(rounds, instance.n_workers),
    )


def _prefix_terms(instance: SOACInstance, trace: CoverTrace) -> np.ndarray:
    """Running maxima of the shared-prefix payment terms.

    ``best[r, p]`` is the largest payment term winner ``p`` collects
    from rounds ``0..r`` of its ``W \\ {i}`` rerun — rounds that are
    identical to the main run and therefore read entirely from the
    trace: at round ``r`` the replacement is the main winner ``w_r``
    and the term is ``(b_{w_r} · own_p) / other_{w_r}`` (Alg. 2 line
    15), with both marginals taken from ``trace.scores[r]``.
    """
    winners = trace.winners
    rounds = np.arange(trace.n_rounds)
    own = trace.scores[:, winners]  # (R, R): own[r, p] = marginal of p at r
    other = trace.scores[rounds, winners]  # (R,) marginal of w_r at r
    terms = (instance.bids[winners][:, None] * own) / other[:, None]
    return np.maximum.accumulate(terms, axis=0)


def _continuation(
    instance: SOACInstance, trace: CoverTrace, position: int
) -> float:
    """Best payment term from the forked tail of one winner's rerun.

    Forks the ``W \\ {i}`` rerun at the round that selected ``i``
    (everything earlier is the shared prefix) and greedily covers the
    remaining residual without ``i`` — as a *lazy* greedy.  A heap holds
    ``(ratio, worker, round, marginal)`` entries seeded from the exact
    fork-round marginals in ``trace.scores``; each round re-evaluates
    only stale entries from the top down until a fresh one surfaces.
    Marginals never grow as the residual shrinks, so a stale ratio is a
    lower bound on the current one and the first fresh top is the
    argmin (ties to the lower index, like ``np.argmin``).  Raises
    :class:`InfeasibleCoverageError` when the residual is still open
    and the heap is empty or its fresh top is ``inf`` (then so is every
    ratio, and the scalar loop picks nobody) — the monopolist case.
    """
    excluded = int(trace.winners[position])
    residual = trace.residuals[position].copy()
    accuracy = instance.accuracy
    bids = instance.bids.tolist()
    fork_scores = trace.scores[position]
    useful = fork_scores > COVERAGE_TOL
    useful[trace.winners[: position + 1]] = False
    ratios = np.full(len(fork_scores), np.inf)
    np.divide(instance.bids, fork_scores, out=ratios, where=useful)
    workers = np.flatnonzero(useful)
    heap = list(
        zip(
            ratios[workers].tolist(),
            workers.tolist(),
            itertools.repeat(0),
            fork_scores[workers].tolist(),
        )
    )
    heapq.heapify(heap)
    # ``ndarray.sum`` is ``np.add.reduce`` behind a Python wrapper;
    # calling the ufunc directly gives the same pairwise sum, cheaper.
    add, minimum = np.add.reduce, np.minimum
    capped = np.empty_like(residual)
    selected = trace.winners[:position].tolist()
    best = 0.0
    round_ = 0
    while add(residual) > COVERAGE_TOL:
        while heap and heap[0][2] != round_:
            worker = heap[0][1]
            marginal = float(add(minimum(residual, accuracy[worker], out=capped)))
            if marginal <= COVERAGE_TOL:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(
                    heap, (bids[worker] / marginal, worker, round_, marginal)
                )
        if not heap or heap[0][0] == math.inf:
            raise InfeasibleCoverageError(
                instance.uncovered_tasks(sorted(selected))
            )
        _, winner, _, other = heapq.heappop(heap)
        own = float(add(minimum(residual, accuracy[excluded], out=capped)))
        best = max(best, (bids[winner] * own) / other)
        selected.append(winner)
        _subtract_coverage(instance, residual, winner)
        round_ += 1
    return best


def run_auction(
    instance: SOACInstance, *, monopoly_payment_factor: float = 1.0
) -> tuple[list[int], dict[str, float], list[str]]:
    """Winner selection + critical payments, vectorized end to end.

    Returns ``(winners-in-selection-order, payments, monopolists)`` —
    the raw components :class:`~repro.auction.reverse_auction.
    ReverseAuction` assembles into an ``AuctionOutcome``.  Assumes the
    caller already ran ``instance.check_feasible()``.

    Timings of the selection loop and each winner's payment rerun go to
    the metrics registry when it is enabled (DESIGN.md §13); the
    telemetry reads outputs only, so instrumented auctions remain
    exactly equal to uninstrumented ones.
    """
    from ..obs.metrics import get_registry

    registry = get_registry()
    rerun_timer = registry.timer(
        "auction_payment_rerun_seconds",
        "Wall time of one winner's critical-payment rerun.",
    )
    monopolists_total = registry.counter(
        "auction_monopolists_total",
        "Winners priced as monopolists (no replacement cover).",
    )
    with registry.timer(
        "auction_selection_seconds",
        "Wall time of the batched winner-selection loop.",
    ).time():
        trace = batched_greedy_cover(instance)
    winners = trace.winners.tolist()
    payments: dict[str, float] = {}
    monopolists: list[str] = []
    prefix_best = _prefix_terms(instance, trace)
    for position, worker in enumerate(winners):
        worker_id = instance.worker_ids[worker]
        with rerun_timer.time():
            try:
                tail = _continuation(instance, trace, position)
            except InfeasibleCoverageError:
                # Monopolist: no replacement set exists without this worker.
                payments[worker_id] = monopoly_payment_factor * float(
                    instance.bids[worker]
                )
                monopolists.append(worker_id)
                monopolists_total.inc()
                continue
            shared = float(prefix_best[position - 1, position]) if position else 0.0
            payments[worker_id] = max(shared, tail)
    registry.counter("auction_runs_total", "Auctions executed.").inc()
    registry.histogram(
        "auction_rounds",
        "Selection rounds (winners) per auction.",
        buckets=(1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0),
    ).observe(len(winners))
    from ..obs import trace as obs_trace

    obs_trace.emit(
        "auction_run",
        winners=len(winners),
        monopolists=len(monopolists),
        total_payment=float(sum(payments.values())),
    )
    return winners, payments, monopolists
