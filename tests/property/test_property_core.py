"""Property-based tests on the truth-discovery core (hypothesis).

Strategy: generate arbitrary small claim matrices (workers × tasks with
random participation and values) and assert the probabilistic
invariants that every step of DATE must uphold regardless of input.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DATE, Dataset, DateConfig, Task, WorkerProfile
from repro.core import DatasetIndex

from tests.oracles import (
    claims_by_worker,
    compute_pairwise_dependence,
    discounted_value_posteriors,
    independence_probabilities,
    initial_accuracy_matrix,
    majority_vote,
    select_truths,
    support_counts,
    update_accuracy_matrix,
    value_groups,
    value_posteriors,
)

VALUES = ("A", "B", "C", "D")


@st.composite
def claim_matrices(draw, max_workers=6, max_tasks=5):
    """A random dataset: arbitrary participation and value choices."""
    n = draw(st.integers(min_value=2, max_value=max_workers))
    m = draw(st.integers(min_value=1, max_value=max_tasks))
    tasks = tuple(
        Task(task_id=f"t{j}", domain=VALUES, truth="A") for j in range(m)
    )
    workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n))
    claims = {}
    for i in range(n):
        for j in range(m):
            if draw(st.booleans()):
                value = draw(st.sampled_from(VALUES))
                claims[(f"w{i}", f"t{j}")] = value
    # Guarantee at least one claim so the dataset is non-trivial.
    if not claims:
        claims[("w0", "t0")] = draw(st.sampled_from(VALUES))
    return Dataset(tasks=tasks, workers=workers, claims=claims)


@st.composite
def date_params(draw):
    return {
        "copy_prob_r": draw(st.floats(min_value=0.05, max_value=0.95)),
        "prior_alpha": draw(st.floats(min_value=0.05, max_value=0.95)),
    }


class TestDependenceInvariants:
    @given(dataset=claim_matrices(), params=date_params())
    @settings(max_examples=40)
    def test_posteriors_are_probabilities(self, dataset, params):
        index = DatasetIndex(dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        posteriors = compute_pairwise_dependence(
            index, majority_vote(index), accuracy, **params
        )
        for post in posteriors.values():
            assert 0.0 <= post.p_a_to_b <= 1.0
            assert 0.0 <= post.p_b_to_a <= 1.0
            total = post.p_a_to_b + post.p_b_to_a + post.p_independent
            assert math.isclose(total, 1.0, abs_tol=1e-9)

    @given(dataset=claim_matrices(), params=date_params())
    @settings(max_examples=40)
    def test_posteriors_finite(self, dataset, params):
        index = DatasetIndex(dataset)
        accuracy = initial_accuracy_matrix(index, 0.9)
        posteriors = compute_pairwise_dependence(
            index, majority_vote(index), accuracy, **params
        )
        for post in posteriors.values():
            assert math.isfinite(post.p_a_to_b)
            assert math.isfinite(post.p_b_to_a)


class TestIndependenceInvariants:
    @given(dataset=claim_matrices(), params=date_params())
    @settings(max_examples=40)
    def test_scores_in_unit_interval_and_anchored(self, dataset, params):
        index = DatasetIndex(dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        deps = compute_pairwise_dependence(
            index, majority_vote(index), accuracy, **params
        )
        table = independence_probabilities(
            index, deps, copy_prob_r=params["copy_prob_r"]
        )
        for j, groups in enumerate(value_groups(index)):
            for value, scores in table[j].items():
                assert set(scores) == set(groups[value])
                for score in scores.values():
                    assert 0.0 < score <= 1.0
                # The first worker in every group is undiscounted.
                assert math.isclose(max(scores.values()), 1.0)


class TestPosteriorInvariants:
    @given(dataset=claim_matrices(), epsilon=st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=40)
    def test_value_posteriors_normalized(self, dataset, epsilon):
        index = DatasetIndex(dataset)
        accuracy = initial_accuracy_matrix(index, epsilon)
        posteriors = value_posteriors(index, accuracy)
        for table, groups in zip(posteriors, value_groups(index)):
            if groups:
                assert math.isclose(sum(table.values()), 1.0, abs_tol=1e-9)
                for p in table.values():
                    assert 0.0 <= p <= 1.0

    @given(dataset=claim_matrices(), params=date_params())
    @settings(max_examples=30)
    def test_discounted_posteriors_normalized(self, dataset, params):
        index = DatasetIndex(dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        deps = compute_pairwise_dependence(
            index, majority_vote(index), accuracy, **params
        )
        independence = independence_probabilities(
            index, deps, copy_prob_r=params["copy_prob_r"]
        )
        posteriors = discounted_value_posteriors(index, accuracy, independence)
        for table, groups in zip(posteriors, value_groups(index)):
            if groups:
                assert math.isclose(sum(table.values()), 1.0, abs_tol=1e-9)

    @given(dataset=claim_matrices())
    @settings(max_examples=30)
    def test_accuracy_matrix_bounds_and_sparsity(self, dataset):
        index = DatasetIndex(dataset)
        posteriors = value_posteriors(index, initial_accuracy_matrix(index, 0.5))
        matrix = update_accuracy_matrix(index, posteriors)
        assert matrix.shape == (index.n_workers, index.n_tasks)
        by_worker = claims_by_worker(index)
        for i in range(index.n_workers):
            for j in range(index.n_tasks):
                if j in by_worker[i]:
                    assert 0.0 <= matrix[i, j] <= 1.0
                else:
                    assert matrix[i, j] == 0.0


class TestSupportInvariants:
    @given(dataset=claim_matrices(), params=date_params())
    @settings(max_examples=30)
    def test_support_non_negative_and_truths_observed(self, dataset, params):
        index = DatasetIndex(dataset)
        accuracy = initial_accuracy_matrix(index, 0.5)
        deps = compute_pairwise_dependence(
            index, majority_vote(index), accuracy, **params
        )
        independence = independence_probabilities(
            index, deps, copy_prob_r=params["copy_prob_r"]
        )
        support = support_counts(index, accuracy, independence)
        truths = select_truths(support)
        for j, groups in enumerate(value_groups(index)):
            for count in support[j].values():
                assert count >= 0.0
            if groups:
                assert truths[j] in groups
            else:
                assert truths[j] is None


class TestEndToEndInvariants:
    @given(dataset=claim_matrices(), params=date_params())
    @settings(max_examples=20)
    def test_date_always_terminates_with_valid_result(self, dataset, params):
        import warnings

        config = DateConfig(max_iterations=12, **params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = DATE(config).run(dataset)
        assert result.iterations <= 12
        # Every estimated truth is a value someone actually claimed.
        for task_id, value in result.truths.items():
            observed = set(dataset.claims_by_task[task_id].values())
            assert value in observed
        # Accuracies are probabilities.
        for accuracy in result.worker_accuracy.values():
            assert 0.0 <= accuracy <= 1.0
