"""Property tests: the array engine matches the scalar oracles.

Every DATE-family algorithm (DATE, NC, ED) is run twice on randomized
synthetic datasets — including copier-heavy worlds (workers that
duplicate a source's claims verbatim) and sparse-coverage worlds —
once through the product and once through the scalar transcription in
tests/oracles/, and the two must agree:

- estimated truths *exactly* (same argmax, same tie-breaks),
- accuracy matrices and dependence posteriors within 1e-9,
- confidence and support tables within 1e-9.

``derandomize=True`` keeps the corpus stable across runs: the gate is
an acceptance criterion, not a fuzzing lottery.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DATE, Dataset, DateConfig, Task, WorkerProfile
from repro.baselines import EnumerateDependence, NoCopier
from repro.core import DatasetIndex
from repro.core.falsedist import EmpiricalFalseValues, ZipfFalseValues

from tests.oracles import run_reference

VALUES = ("A", "B", "C", "D")

TOL = 1e-9


@st.composite
def claim_matrices(draw, max_workers=6, max_tasks=5, participation=None):
    """A random dataset: arbitrary participation and value choices."""
    n = draw(st.integers(min_value=2, max_value=max_workers))
    m = draw(st.integers(min_value=1, max_value=max_tasks))
    tasks = tuple(Task(task_id=f"t{j}", domain=VALUES, truth="A") for j in range(m))
    workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n))
    claims = {}
    for i in range(n):
        for j in range(m):
            answers = (
                draw(st.booleans())
                if participation is None
                else draw(st.floats(0, 1)) < participation
            )
            if answers:
                claims[(f"w{i}", f"t{j}")] = draw(st.sampled_from(VALUES))
    if not claims:
        claims[("w0", "t0")] = draw(st.sampled_from(VALUES))
    return Dataset(tasks=tasks, workers=workers, claims=claims)


@st.composite
def copier_heavy_matrices(draw, max_workers=5, max_tasks=5, max_copiers=3):
    """Random datasets plus verbatim copiers of one source worker."""
    base = draw(claim_matrices(max_workers=max_workers, max_tasks=max_tasks))
    n_copiers = draw(st.integers(min_value=1, max_value=max_copiers))
    source = draw(st.sampled_from([w.worker_id for w in base.workers]))
    source_claims = {
        task_id: value
        for (worker_id, task_id), value in base.claims.items()
        if worker_id == source
    }
    workers = list(base.workers)
    claims = dict(base.claims)
    for c in range(n_copiers):
        copier_id = f"c{c}"
        workers.append(WorkerProfile(worker_id=copier_id))
        for task_id, value in source_claims.items():
            claims[(copier_id, task_id)] = value
    return Dataset(tasks=base.tasks, workers=tuple(workers), claims=claims)


@st.composite
def sparse_matrices(draw):
    """Low-participation worlds: most (worker, task) cells are empty."""
    return draw(
        claim_matrices(max_workers=8, max_tasks=8, participation=0.25)
    )


@st.composite
def config_variants(draw):
    """A spread of DateConfig knobs engine and oracle must agree under."""
    return dict(
        copy_prob_r=draw(st.floats(min_value=0.05, max_value=0.95)),
        prior_alpha=draw(st.floats(min_value=0.05, max_value=0.95)),
        granularity=draw(st.sampled_from(["worker", "task"])),
        ordering=draw(st.sampled_from(["dependent_first", "independent_first"])),
        discount_mode=draw(st.sampled_from(["directed", "total"])),
        discounted_posterior=draw(st.booleans()),
        max_iterations=draw(st.integers(min_value=1, max_value=25)),
    )


def assert_equivalent(ref, vec):
    """The full result-bundle comparison engine and oracle must satisfy."""
    assert ref.truths == vec.truths
    assert ref.iterations == vec.iterations
    assert ref.converged == vec.converged
    np.testing.assert_allclose(
        ref.accuracy_matrix, vec.accuracy_matrix, atol=TOL, rtol=0
    )
    assert set(ref.dependence) == set(vec.dependence)
    for pair, post in ref.dependence.items():
        other = vec.dependence[pair]
        assert abs(post.p_a_to_b - other.p_a_to_b) <= TOL
        assert abs(post.p_b_to_a - other.p_b_to_a) <= TOL
    assert set(ref.confidence) == set(vec.confidence)
    for task_id, value in ref.confidence.items():
        assert abs(value - vec.confidence[task_id]) <= TOL
    assert set(ref.support) == set(vec.support)
    for task_id, counts in ref.support.items():
        assert set(counts) == set(vec.support[task_id])
        for v, count in counts.items():
            assert abs(count - vec.support[task_id][v]) <= TOL
    assert ref.worker_accuracy.keys() == vec.worker_accuracy.keys()
    for worker_id, acc in ref.worker_accuracy.items():
        assert abs(acc - vec.worker_accuracy[worker_id]) <= TOL


def run_both(algorithm_cls, dataset, **config_kwargs):
    index = DatasetIndex(dataset)
    ref = run_reference(
        algorithm_cls(DateConfig(**config_kwargs)), dataset, index=index
    )
    vec = algorithm_cls(
        DateConfig(**config_kwargs)
    ).run(dataset, index=index)
    return ref, vec


class TestDateBackendEquivalence:
    @given(dataset=claim_matrices(), params=config_variants())
    @settings(max_examples=60, derandomize=True)
    def test_random_datasets(self, dataset, params):
        assert_equivalent(*run_both(DATE, dataset, **params))

    @given(dataset=copier_heavy_matrices(), params=config_variants())
    @settings(max_examples=60, derandomize=True)
    def test_copier_heavy_datasets(self, dataset, params):
        assert_equivalent(*run_both(DATE, dataset, **params))

    @given(dataset=sparse_matrices(), params=config_variants())
    @settings(max_examples=40, derandomize=True)
    def test_sparse_coverage_datasets(self, dataset, params):
        assert_equivalent(*run_both(DATE, dataset, **params))

    @given(dataset=claim_matrices())
    @settings(max_examples=25, derandomize=True)
    def test_zipf_false_values(self, dataset):
        index = DatasetIndex(dataset)
        ref = run_reference(
            DATE(DateConfig(false_values=ZipfFalseValues())), dataset, index=index
        )
        vec = DATE(
            DateConfig(false_values=ZipfFalseValues())
        ).run(dataset, index=index)
        assert_equivalent(ref, vec)

    @given(dataset=claim_matrices())
    @settings(max_examples=25, derandomize=True)
    def test_empirical_false_values_undiscounted(self, dataset):
        # discounted_posterior=False exercises the general (non
        # candidate-free) posterior kernel.
        index = DatasetIndex(dataset)
        ref = run_reference(
            DATE(
                DateConfig(
                    false_values=EmpiricalFalseValues(),
                    discounted_posterior=False,
                )
            ),
            dataset,
            index=index,
        )
        vec = DATE(
            DateConfig(
                false_values=EmpiricalFalseValues(),
                discounted_posterior=False,
            )
        ).run(dataset, index=index)
        assert_equivalent(ref, vec)

    @given(dataset=claim_matrices(), params=config_variants())
    @settings(max_examples=30, derandomize=True)
    def test_similarity_adjustment(self, dataset, params):
        def similarity(a: str, b: str) -> float:
            return 0.5 if (a, b) in (("A", "B"), ("B", "A")) else 0.0

        params = dict(params, similarity=similarity, similarity_weight=0.3)
        assert_equivalent(*run_both(DATE, dataset, **params))


class TestBaselineBackendEquivalence:
    @given(dataset=copier_heavy_matrices(), params=config_variants())
    @settings(max_examples=40, derandomize=True)
    def test_no_copier(self, dataset, params):
        assert_equivalent(*run_both(NoCopier, dataset, **params))

    @given(dataset=copier_heavy_matrices(), params=config_variants())
    @settings(max_examples=30, derandomize=True)
    def test_enumerate_dependence(self, dataset, params):
        assert_equivalent(*run_both(EnumerateDependence, dataset, **params))
