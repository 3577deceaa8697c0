"""Engine-vs-oracle equivalence of the reverse auction (hypothesis).

The auction engine (:mod:`repro.auction.engine`) claims *exact*
equality with the scalar transcription in tests/oracles/auction.py —
winners, selection order,
payments, monopolists, bit for bit (DESIGN.md §10).  This suite holds
it to that claim over random instances, including the shapes most
likely to break prefix sharing:

- skewed (lognormal) bids, so selection order is far from index order;
- near-singular requirements (at 99.9% of available accuracy), so
  excluding one winner frequently strands coverage → monopolists;
- sparse accuracy rows, so the incremental column updates carry most
  of the selection;
- infeasible instances, where engine and oracle must raise identically;
- quantized instances (integer bids, accuracies on a 0.25 grid), where
  equal bid/marginal ratios are common and the lazy payment
  continuation's stale and fresh heap entries tie;
- larger fleets, where each continuation runs many lazy rounds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InfeasibleCoverageError, ReverseAuction, SOACInstance
from repro.auction.engine import batched_greedy_cover

from tests.oracles import greedy_cover, reference_auction


def build_instance(
    seed: int,
    *,
    max_workers: int = 20,
    max_tasks: int = 8,
    requirement_pressure: float = 0.9,
    bid_spread: float = 0.6,
    ensure_coverable: bool = True,
    quantized: bool = False,
) -> SOACInstance:
    """One random instance, deterministically derived from ``seed``.

    ``quantized`` rounds accuracies up to a 0.25 grid, requirements down
    to it, and draws integer bids in 1-4, so ratio ties are frequent.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_workers + 1))
    m = int(rng.integers(1, max_tasks + 1))
    density = rng.uniform(0.15, 0.85)
    accuracy = np.where(
        rng.random((n, m)) < density, rng.uniform(0.05, 1.0, (n, m)), 0.0
    )
    if ensure_coverable:
        for j in range(m):
            if accuracy[:, j].sum() == 0.0:
                accuracy[rng.integers(n), j] = rng.uniform(0.3, 0.9)
    requirements = np.minimum(
        rng.uniform(0.1, 3.0, m), requirement_pressure * accuracy.sum(axis=0)
    )
    bids = rng.lognormal(0.5, bid_spread, n)
    if quantized:
        accuracy = np.ceil(accuracy * 4) / 4
        requirements = np.floor(requirements * 4) / 4
        bids = rng.integers(1, 5, n).astype(np.float64)
    return SOACInstance(
        worker_ids=tuple(f"w{i}" for i in range(n)),
        task_ids=tuple(f"t{j}" for j in range(m)),
        requirements=requirements,
        accuracy=accuracy,
        bids=bids,
        costs=bids.copy(),
        task_values=np.full(m, 5.0),
    )


def assert_outcomes_identical(instance: SOACInstance, **auction_kwargs) -> None:
    """Engine and oracle agree exactly, or both raise the same infeasibility."""
    try:
        reference = reference_auction(instance, **auction_kwargs)
    except InfeasibleCoverageError as error:
        with pytest.raises(InfeasibleCoverageError) as caught:
            ReverseAuction(**auction_kwargs).run(instance)
        assert caught.value.args == error.args
        return
    vectorized = ReverseAuction(**auction_kwargs).run(
        instance
    )
    assert vectorized.winner_ids == reference.winner_ids
    assert vectorized.winner_indexes == reference.winner_indexes
    assert vectorized.monopolists == reference.monopolists
    assert set(vectorized.payments) == set(reference.payments)
    for worker_id, payment in reference.payments.items():
        assert vectorized.payments[worker_id] == payment, worker_id
    assert vectorized.social_cost == reference.social_cost
    assert vectorized.total_payment == reference.total_payment


class TestRandomInstances:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_outcomes_identical(self, seed):
        assert_outcomes_identical(build_instance(seed))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_skewed_bids(self, seed):
        """Heavy-tailed bids reorder selection far from index order."""
        assert_outcomes_identical(build_instance(seed, bid_spread=2.0))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_near_singular_requirements(self, seed):
        """Requirements at 99.9% of availability breed monopolists."""
        instance = build_instance(seed, requirement_pressure=0.999)
        assert_outcomes_identical(instance)
        outcome = ReverseAuction().run(instance)
        # The scenario exists to exercise the monopolist path; when it
        # fires, monopolists must be paid factor * bid on both engines.
        assert_outcomes_identical(instance, monopoly_payment_factor=1.5)
        for worker_id in outcome.monopolists:
            index = instance.worker_ids.index(worker_id)
            assert outcome.payments[worker_id] == pytest.approx(
                float(instance.bids[index])
            )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_quantized_ties(self, seed):
        """Integer bids on a 0.25 accuracy grid: ties everywhere."""
        assert_outcomes_identical(build_instance(seed, quantized=True))

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        quantized=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_larger_instances(self, seed, quantized):
        """Up to 60 workers x 25 tasks: long lazy continuations."""
        instance = build_instance(
            seed, max_workers=60, max_tasks=25, quantized=quantized
        )
        assert_outcomes_identical(instance)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_selection_traces_identical(self, seed):
        """The batched cover's trace replays greedy_cover, residuals included."""
        instance = build_instance(seed)
        scalar = greedy_cover(instance)
        trace = batched_greedy_cover(instance)
        assert [w for w, _ in scalar] == trace.winners.tolist()
        assert len(trace.residuals) == len(scalar)
        for (_, res_scalar), res_batched in zip(scalar, trace.residuals):
            assert np.array_equal(res_scalar, res_batched)


class TestEdgeCases:
    def test_monopolist_instance(self):
        """Only w0 covers t1: w0 is a monopolist on engine and oracle."""
        instance = SOACInstance(
            worker_ids=("w0", "w1"),
            task_ids=("t0", "t1"),
            requirements=np.array([1.0, 1.0]),
            accuracy=np.array([[1.0, 1.0], [1.0, 0.0]]),
            bids=np.array([2.0, 1.0]),
            costs=np.array([2.0, 1.0]),
            task_values=np.full(2, 5.0),
        )
        assert_outcomes_identical(instance, monopoly_payment_factor=2.0)
        outcome = ReverseAuction(monopoly_payment_factor=2.0).run(instance)
        assert "w0" in outcome.monopolists
        assert outcome.payments["w0"] == pytest.approx(4.0)

    def test_infeasible_instance(self):
        """Uncoverable requirements raise identically on engine and oracle."""
        instance = build_instance(7, ensure_coverable=False)
        bumped = SOACInstance(
            worker_ids=instance.worker_ids,
            task_ids=instance.task_ids,
            requirements=instance.accuracy.sum(axis=0) + 1.0,
            accuracy=instance.accuracy,
            bids=instance.bids,
            costs=instance.costs,
            task_values=instance.task_values,
        )
        assert_outcomes_identical(bumped)

    def test_zero_requirements(self):
        instance = SOACInstance(
            worker_ids=("w0", "w1"),
            task_ids=("t0",),
            requirements=np.array([0.0]),
            accuracy=np.array([[0.5], [0.7]]),
            bids=np.array([1.0, 2.0]),
            costs=np.array([1.0, 2.0]),
            task_values=np.array([5.0]),
        )
        assert_outcomes_identical(instance)
        outcome = ReverseAuction().run(instance)
        assert outcome.winner_ids == ()

    def test_single_worker_fleet(self):
        """One worker covering everything is a monopolist by definition."""
        instance = SOACInstance(
            worker_ids=("w0",),
            task_ids=("t0", "t1"),
            requirements=np.array([0.5, 0.5]),
            accuracy=np.array([[0.9, 0.9]]),
            bids=np.array([3.0]),
            costs=np.array([3.0]),
            task_values=np.full(2, 5.0),
        )
        assert_outcomes_identical(instance)
        outcome = ReverseAuction().run(instance)
        assert outcome.monopolists == ("w0",)
