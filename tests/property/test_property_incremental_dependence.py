"""Property tests: the incremental dependence engine is exact.

**Refresh exactness** (DESIGN.md §12), on random campaigns:
:class:`IncrementalDependence` refreshed through a random sequence of
truth-code flips and accuracy rewrites equals a full
:func:`pairwise_dependence_arrays` pass over the same inputs *bit for
bit*, every step, whether the touched tasks are diffed or passed in.

``derandomize=True`` keeps the corpus stable: this is an acceptance
gate, not a fuzzing lottery.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DateConfig
from repro.core import DatasetIndex
from repro.core.engine import IncrementalDependence, pairwise_dependence_arrays

from tests.property.test_property_streaming import streamed_campaigns


def _kernel_params(index: DatasetIndex, cfg: DateConfig) -> dict:
    return dict(
        copy_prob_r=cfg.copy_prob_r,
        prior_alpha=cfg.prior_alpha,
        collision=cfg.false_values.collision_array(index),
        accuracy_clamp=cfg.accuracy_clamp,
    )


def _random_inputs(index: DatasetIndex, rng) -> tuple[np.ndarray, np.ndarray]:
    """Valid random truth codes (-1 allowed) + claim accuracies."""
    arrays = index.arrays
    group_counts = arrays.task_group_ptr[1:] - arrays.task_group_ptr[:-1]
    codes = np.where(
        group_counts > 0,
        rng.integers(-1, np.maximum(group_counts, 1)),
        -1,
    ).astype(np.int64)
    return codes, rng.uniform(0.05, 0.95, arrays.n_claims)


def _assert_bitwise(got, want) -> None:
    np.testing.assert_array_equal(got.p_ab, want.p_ab)
    np.testing.assert_array_equal(got.p_ba, want.p_ba)


class TestRefreshExactness:
    @given(campaign=streamed_campaigns(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, derandomize=True)
    def test_edit_sequence_matches_full_recompute_bitwise(self, campaign, seed):
        dataset, _ = campaign
        index = DatasetIndex(dataset)
        arrays = index.arrays
        params = _kernel_params(index, DateConfig())
        rng = np.random.default_rng(seed)
        codes, acc = _random_inputs(index, rng)
        engine = IncrementalDependence(arrays, **params)
        for _ in range(4):
            got = engine.refresh(codes, acc)
            _assert_bitwise(
                got, pairwise_dependence_arrays(arrays, codes, acc, **params)
            )
            # Edit a random task subset (possibly empty, possibly all).
            touched = np.flatnonzero(
                rng.random(index.n_tasks) < rng.uniform(0.0, 0.8)
            )
            codes = codes.copy()
            acc = acc.copy()
            for j in touched:
                lo = int(arrays.task_group_ptr[j])
                hi = int(arrays.task_group_ptr[j + 1])
                if hi > lo:
                    codes[j] = rng.integers(-1, hi - lo)
                c0, c1 = int(arrays.task_ptr[j]), int(arrays.task_ptr[j + 1])
                acc[c0:c1] = rng.uniform(0.05, 0.95, c1 - c0)

    @given(campaign=streamed_campaigns(), seed=st.integers(0, 2**16))
    @settings(max_examples=20, derandomize=True)
    def test_explicit_touched_set_matches_diffing(self, campaign, seed):
        dataset, _ = campaign
        index = DatasetIndex(dataset)
        arrays = index.arrays
        params = _kernel_params(index, DateConfig())
        rng = np.random.default_rng(seed)
        codes, acc = _random_inputs(index, rng)
        engine = IncrementalDependence(arrays, **params)
        engine.refresh(codes, acc)
        # A superset touched list (here: every task) must give the same
        # bits as the stored-state diff — over-reporting is harmless.
        codes = codes.copy()
        if index.n_tasks:
            j = int(rng.integers(0, index.n_tasks))
            lo = int(arrays.task_group_ptr[j])
            hi = int(arrays.task_group_ptr[j + 1])
            if hi > lo:
                codes[j] = (int(codes[j]) + 1) % (hi - lo)
        got = engine.refresh(
            codes, acc, touched_tasks=np.arange(index.n_tasks, dtype=np.int64)
        )
        _assert_bitwise(
            got, pairwise_dependence_arrays(arrays, codes, acc, **params)
        )
