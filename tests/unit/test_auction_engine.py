"""Unit tests for the vectorized auction engine's building blocks.

Outcome-level equivalence with the scalar oracle lives in
tests/property/test_property_auction_backends.py; these tests pin the
pieces — the CSR/CSC accuracy index, the trace layout, the
``auction_run`` trace event, and the O(pairs) pair-slot map of Eq. 16.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ReverseAuction, SOACInstance
from repro.auction.engine import GreedyCover, batched_greedy_cover
from repro.auction.soac import SparseAccuracy
from repro.core.engine import (
    DependenceArrays,
    independence_flat,
    pairwise_dependence_arrays,
)
from repro.core.falsedist import UniformFalseValues
from repro.core.indexing import DatasetIndex
from repro.errors import InfeasibleCoverageError
from repro.obs.trace import read_trace, trace_run

from tests.oracles import directed_matrix


class TestSparseAccuracy:
    def test_layout_matches_dense(self):
        rng = np.random.default_rng(5)
        accuracy = np.where(
            rng.random((9, 7)) < 0.4, rng.uniform(0.1, 1.0, (9, 7)), 0.0
        )
        sparse = SparseAccuracy.from_dense(accuracy)
        assert sparse.nnz == int((accuracy > 0).sum())
        for worker in range(9):
            expected = np.nonzero(accuracy[worker])[0]
            np.testing.assert_array_equal(sparse.tasks_of(worker), expected)
        for task in range(7):
            rows = sparse.col_rows[sparse.col_ptr[task] : sparse.col_ptr[task + 1]]
            np.testing.assert_array_equal(rows, np.nonzero(accuracy[:, task])[0])

    def test_workers_on_unions_columns(self):
        accuracy = np.array(
            [
                [0.5, 0.0, 0.0],
                [0.0, 0.5, 0.0],
                [0.5, 0.5, 0.0],
                [0.0, 0.0, 0.5],
            ]
        )
        sparse = SparseAccuracy.from_dense(accuracy)
        np.testing.assert_array_equal(
            sparse.workers_on(np.array([0, 1])), [0, 1, 2]
        )
        np.testing.assert_array_equal(sparse.workers_on(np.array([2])), [3])
        assert sparse.workers_on(np.array([], dtype=np.int64)).size == 0

    def test_cached_on_instance(self, soac_medium):
        assert soac_medium.sparse_accuracy is soac_medium.sparse_accuracy


class TestCoverTrace:
    def test_trace_shapes_and_rounds(self, soac_medium):
        trace = batched_greedy_cover(soac_medium)
        rounds = trace.n_rounds
        assert trace.winners.shape == (rounds,)
        assert trace.residuals.shape == (rounds, soac_medium.n_tasks)
        assert trace.scores.shape == (rounds, soac_medium.n_workers)
        # Round 0 starts from the raw requirements.
        np.testing.assert_array_equal(
            trace.residuals[0], soac_medium.requirements
        )
        # The recorded score of each selected winner is its marginal at
        # that residual, computed exactly as the reference does.
        for r in range(rounds):
            winner = trace.winners[r]
            expected = np.minimum(
                trace.residuals[r], soac_medium.accuracy[winner]
            ).sum()
            assert trace.scores[r, winner] == expected

    def test_empty_requirements_trace(self):
        instance = SOACInstance(
            worker_ids=("w0",),
            task_ids=("t0",),
            requirements=np.array([0.0]),
            accuracy=np.array([[0.9]]),
            bids=np.array([1.0]),
            costs=np.array([1.0]),
            task_values=np.array([5.0]),
        )
        trace = batched_greedy_cover(instance)
        assert trace.n_rounds == 0
        assert trace.residuals.shape == (0, 1)
        assert trace.scores.shape == (0, 1)

    def test_auction_without_winners_is_traced(self, tmp_path):
        instance = SOACInstance(
            worker_ids=("w0",),
            task_ids=("t0",),
            requirements=np.array([0.0]),
            accuracy=np.array([[0.9]]),
            bids=np.array([1.0]),
            costs=np.array([1.0]),
            task_values=np.array([5.0]),
        )
        with trace_run({"auction": "empty"}, directory=tmp_path) as writer:
            assert ReverseAuction().run(instance).winner_ids == ()
        events = [e for e in read_trace(writer.path) if e["event"] == "auction_run"]
        assert len(events) == 1
        assert events[0]["winners"] == 0
        assert events[0]["monopolists"] == 0
        assert events[0]["total_payment"] == 0.0

    def test_apply_rejects_a_worker_that_adds_nothing(self):
        """A pick that is selected already, or covers nothing open, raises.

        Applying it would leave the residual unchanged and repeat the
        round forever.
        """
        instance = SOACInstance(
            worker_ids=("w0", "w1", "w2"),
            task_ids=("t0", "t1"),
            requirements=np.array([0.5, 0.4]),
            accuracy=np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.0]]),
            bids=np.array([1.0, 1.0, 1.0]),
            costs=np.array([1.0, 1.0, 1.0]),
            task_values=np.full(2, 5.0),
        )
        cover = GreedyCover(instance)
        cover.apply(0)
        for stale in (0, 2):
            with pytest.raises(InfeasibleCoverageError) as caught:
                cover.apply(stale)
            assert caught.value.task_ids == ("t1",)
        assert cover.selected == [0]
        np.testing.assert_array_equal(cover.residual, [0.0, 0.4])


class TestMultiGroupSlots:
    """Eq. 16's member-pair gather: ``slot_values().take(slots)``."""

    def _dependence(self, dataset):
        index = DatasetIndex(dataset)
        arrays = index.arrays
        dependence = pairwise_dependence_arrays(
            arrays,
            arrays.majority_codes(),
            np.full(arrays.n_claims, 0.5),
            copy_prob_r=0.4,
            prior_alpha=0.2,
            collision=UniformFalseValues().collision_array(index),
        )
        return arrays, dependence

    def test_take_matches_dense_matrix(self, qlf_small):
        arrays, dependence = self._dependence(qlf_small)
        dense = directed_matrix(dependence, arrays)
        values = dependence.slot_values()
        buckets = arrays.multi_group_buckets
        assert len(buckets) > 1
        assert len(arrays.multi_group_slots) == len(buckets)
        for (m, claim_idx), slots in zip(buckets, arrays.multi_group_slots):
            members = arrays.claim_worker[claim_idx]
            assert slots.shape == (len(claim_idx), m, m)
            np.testing.assert_array_equal(
                values.take(slots), dense[members[:, :, None], members[:, None, :]]
            )

    def test_memory_is_pairs_not_squared(self, qlf_small):
        arrays, dependence = self._dependence(qlf_small)
        assert dependence.slot_values().shape == (2 * arrays.n_pairs + 1,)
        sizes = arrays.group_size[arrays.group_size >= 2]
        slots = arrays.multi_group_slots
        assert sum(s.size for s in slots) == int((sizes**2).sum())
        assert all(s.dtype == np.int32 for s in slots)

    def test_empty_pairs(self, tiny_dataset):
        dataset = tiny_dataset.subset(worker_ids=["w5"])
        arrays = DatasetIndex(dataset).arrays
        dependence = DependenceArrays(p_ab=np.empty(0), p_ba=np.empty(0))
        assert arrays.n_pairs == 0
        assert arrays.multi_group_slots == []
        np.testing.assert_array_equal(dependence.slot_values(), [0.0])
        indep = independence_flat(arrays, dependence, copy_prob_r=0.4)
        np.testing.assert_array_equal(indep, np.ones(arrays.n_claims))
