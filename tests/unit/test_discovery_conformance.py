"""Conformance suite: the membership bar of the algorithm zoo.

Every algorithm behind the :class:`~repro.discovery.TruthDiscoverer`
interface must pass *all* of these, on the same parametrized axis:

- protocol shape (runtime-checkable isinstance, ``method_name``, and
  ``run``'s parameters are the protocol's);
- unanimous claims resolve exactly like majority vote;
- bit-identical determinism across fresh instances;
- worker-permutation equivariance (truths always; accuracies for
  algorithms whose reputation is order-free);
- claim arrival order changes nothing (bit-identity), under every
  false-value model for the members that take one;
- value-relabel equivariance (order-preserving bijections exactly;
  arbitrary bijections on tie-free data);
- lean/full consistency of the estimate-carrying fields, and lean runs
  leave the support and dependence tables empty;
- a caller's prebuilt index changes nothing (bit-identity);
- telemetry on/off bit-identity;
- unanswered tasks omitted from the truth map;
- a refresh driven by the member weighs the live vote between
  refreshes exactly as a scalar vote over its result does.

A new algorithm joins the zoo by appearing in the registry and passing
this file unchanged.
"""

from __future__ import annotations

import dataclasses
import inspect
import warnings

import numpy as np
import pytest

from repro.core.config import DateConfig
from repro.core.falsedist import EmpiricalFalseValues, ZipfFalseValues
from repro.core.indexing import DatasetIndex
from repro.datasets.qatar_living import generate_qatar_living_like
from repro.discovery import (
    ALGORITHM_NAMES,
    TruthDiscoverer,
    UnknownAlgorithmError,
    canonical_algorithm,
    list_algorithms,
    make_discoverer,
)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.streaming import OnlineDATE, replay_batches
from repro.types import Dataset, Task, WorkerProfile

from tests.property.test_property_live_vote import scalar_vote

#: Algorithms whose per-worker reputation is a pure per-worker
#: aggregate, hence exactly equivariant under worker reordering.  DATE
#: and ED discount accuracies through greedy source-dependence
#: orderings that legitimately depend on worker positions, so only
#: their *truths* are pinned under permutation.
ORDER_FREE_ACCURACY = ("MV", "NC", "TruthFinder", "FDS", "LCA")


def _run(name, dataset, *, index=None, date_config=None, **kwargs):
    discoverer = make_discoverer(name, date_config=date_config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return discoverer.run(dataset, index=index, **kwargs)


def _assert_bit_identical(a, b):
    assert a.truths == b.truths
    assert a.worker_accuracy == b.worker_accuracy
    assert a.confidence == b.confidence
    assert a.support == b.support
    assert a.dependence == b.dependence
    assert np.array_equal(a.accuracy_matrix, b.accuracy_matrix)
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.method == b.method


@pytest.fixture(scope="module")
def campaign():
    dataset = generate_qatar_living_like(
        seed=7, n_tasks=30, n_workers=18, n_copiers=4, target_claims=400
    )
    return dataset, DatasetIndex(dataset)


def _unanimous_dataset():
    """Every answered task gets one unanimous value; one task unanswered."""
    tasks = tuple(
        Task(task_id=f"t{j}", domain=("A", "B", "C"), truth="A")
        for j in range(5)
    )
    workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(4))
    claims = {
        (f"w{i}", f"t{j}"): "ABC"[j % 3]
        for j in range(4)  # t4 stays unanswered
        for i in range(4)
    }
    return Dataset(tasks=tasks, workers=workers, claims=claims)


def _tie_free_dataset():
    """Distinct per-task vote counts so no argmax ever ties."""
    tasks = tuple(
        Task(task_id=f"t{j}", domain=("A", "B", "C"), truth="A")
        for j in range(4)
    )
    workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(5))
    claims = {}
    for j in range(4):
        for i in range(5):
            # 4-1 split: four workers agree, one dissents — a strict
            # majority no reputation re-weighting can tie up.
            claims[(f"w{i}", f"t{j}")] = "A" if i < 4 else "B"
    return Dataset(tasks=tasks, workers=workers, claims=claims)


def _shuffled_claims(dataset: Dataset, seed: int) -> Dataset:
    items = list(dataset.claims.items())
    order = np.random.default_rng(seed).permutation(len(items))
    shuffled = Dataset(
        tasks=dataset.tasks,
        workers=dataset.workers,
        claims=dict(items[i] for i in order),
    )
    assert list(shuffled.claims) != list(dataset.claims)
    return shuffled


def _relabel(dataset: Dataset, mapping: dict[str, str]) -> Dataset:
    tasks = tuple(
        dataclasses.replace(
            task,
            domain=tuple(mapping.get(v, v) for v in task.domain),
            truth=None if task.truth is None else mapping.get(task.truth, task.truth),
        )
        for task in dataset.tasks
    )
    claims = {key: mapping[value] for key, value in dataset.claims.items()}
    return Dataset(tasks=tasks, workers=dataset.workers, claims=claims)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
class TestConformance:
    def test_protocol_shape(self, name):
        discoverer = make_discoverer(name)
        assert isinstance(discoverer, TruthDiscoverer)
        assert discoverer.method_name == name

    def test_run_takes_the_protocol_parameters(self, name):
        got = inspect.signature(make_discoverer(name).run).parameters
        want = dict(inspect.signature(TruthDiscoverer.run).parameters)
        del want["self"]
        assert [(p.name, p.kind, p.default) for p in got.values()] == [
            (p.name, p.kind, p.default) for p in want.values()
        ]

    def test_unanimous_claims_match_majority_vote(self, name):
        dataset = _unanimous_dataset()
        result = _run(name, dataset)
        mv = _run("MV", dataset)
        assert result.truths == mv.truths
        for j in range(4):
            assert result.truths[f"t{j}"] == "ABC"[j % 3]

    def test_unanswered_task_omitted(self, name):
        result = _run(name, _unanimous_dataset())
        assert "t4" not in result.truths

    def test_seed_determinism(self, name, campaign):
        dataset, index = campaign
        first = _run(name, dataset, index=index)
        second = _run(name, dataset, index=index)
        _assert_bit_identical(first, second)

    def test_worker_permutation_equivariance(self, name, campaign):
        dataset, index = campaign
        rng = np.random.default_rng(5)
        order = rng.permutation(len(dataset.workers))
        permuted = Dataset(
            tasks=dataset.tasks,
            workers=tuple(dataset.workers[i] for i in order),
            claims=dataset.claims,
        )
        base = _run(name, dataset, index=index)
        shuffled = _run(name, permuted)
        assert base.truths == shuffled.truths
        if name in ORDER_FREE_ACCURACY:
            assert set(base.worker_accuracy) == set(shuffled.worker_accuracy)
            for worker_id, value in base.worker_accuracy.items():
                assert shuffled.worker_accuracy[worker_id] == pytest.approx(
                    value, abs=1e-9
                )

    def test_arrival_order_bit_identity(self, name, campaign):
        dataset, index = campaign
        _assert_bit_identical(
            _run(name, dataset, index=index), _run(name, _shuffled_claims(dataset, 3))
        )

    def test_order_preserving_relabel_bit_identity(self, name, campaign):
        dataset, index = campaign
        values = sorted(
            {v for v in dataset.claims.values()}
            | {v for t in dataset.tasks for v in t.domain}
            | {t.truth for t in dataset.tasks if t.truth is not None}
        )
        assert len(values) <= 26 * 26
        mapping = {
            v: f"{chr(97 + i // 26)}{chr(97 + i % 26)}"
            for i, v in enumerate(values)
        }
        base = _run(name, dataset, index=index)
        relabeled = _run(name, _relabel(dataset, mapping))
        assert relabeled.truths == {
            task_id: mapping[value] for task_id, value in base.truths.items()
        }
        # Order preservation keeps every integer code identical, so the
        # numeric state must match bit for bit.
        assert relabeled.worker_accuracy == base.worker_accuracy
        assert np.array_equal(relabeled.accuracy_matrix, base.accuracy_matrix)
        assert relabeled.iterations == base.iterations

    def test_arbitrary_relabel_equivariance(self, name):
        dataset = _tie_free_dataset()
        mapping = {"A": "zz", "B": "aa", "C": "mm"}  # order-reversing
        base = _run(name, dataset)
        relabeled = _run(name, _relabel(dataset, mapping))
        assert relabeled.truths == {
            task_id: mapping[value] for task_id, value in base.truths.items()
        }

    def test_lean_full_consistency(self, name, campaign):
        dataset, index = campaign
        full = _run(name, dataset, index=index, lean=False)
        lean = _run(name, dataset, index=index, lean=True)
        assert lean.truths == full.truths
        assert lean.confidence == full.confidence
        assert lean.worker_accuracy == full.worker_accuracy
        assert np.array_equal(lean.accuracy_matrix, full.accuracy_matrix)

    def test_lean_leaves_tables_empty(self, name, campaign):
        dataset, index = campaign
        lean = _run(name, dataset, index=index, lean=True)
        assert lean.support == {}
        assert lean.dependence == {}
        assert _run(name, dataset, index=index).support

    def test_prebuilt_index_bit_identity(self, name, campaign):
        dataset, index = campaign
        built = _run(name, dataset)
        reused = _run(name, dataset, index=index)
        _assert_bit_identical(built, reused)
        assert reused.worker_ids == built.worker_ids
        assert reused.task_ids == built.task_ids

    def test_telemetry_bit_identity(self, name, campaign):
        dataset, index = campaign
        baseline = _run(name, dataset, index=index)
        previous = set_registry(MetricsRegistry(enabled=True))
        try:
            instrumented = _run(name, dataset, index=index)
        finally:
            set_registry(previous)
        _assert_bit_identical(baseline, instrumented)

    def test_refresh_weighs_the_live_vote(self, name, campaign):
        dataset, _index = campaign
        batches = replay_batches(dataset, 5)
        online = OnlineDATE(algorithm=name)
        for batch in batches[:2]:
            online.ingest(batch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = online.refresh()
        answered = {w for w, _t in online.dataset.claims}
        weights = online.state.weights
        assert weights.shape == (online.index.n_workers,)
        assert np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
        for batch in batches[2:]:
            assert online.ingest(batch).iterations == 0
            for task_id in {t for _w, t in batch.claims}:
                value, share = scalar_vote(online, result, answered, task_id)
                assert online.truths[task_id] == value
                assert online.confidence[task_id] == share


@pytest.mark.parametrize("false_values", [ZipfFalseValues, EmpiricalFalseValues])
@pytest.mark.parametrize("name", ("DATE", "NC", "ED"))
def test_arrival_order_bit_identity_under_false_value_models(name, false_values):
    """The members that take a ``DateConfig``, with a false-value model
    that is not candidate-free: the undiscounted posterior then builds
    each task's ``K x K`` matrix, and arrival order still changes
    nothing."""
    config = DateConfig(false_values=false_values(), discounted_posterior=False)
    dataset = generate_qatar_living_like(
        seed=11, n_tasks=60, n_workers=30, n_copiers=6, target_claims=900
    )
    _assert_bit_identical(
        _run(name, dataset, date_config=config),
        _run(name, _shuffled_claims(dataset, 3), date_config=config),
    )


class TestRegistry:
    def test_case_insensitive_lookup(self):
        assert canonical_algorithm("truthfinder") == "TruthFinder"
        assert canonical_algorithm(" date ") == "DATE"
        assert make_discoverer("fds").method_name == "FDS"

    def test_unknown_algorithm_raises(self):
        with pytest.raises(UnknownAlgorithmError):
            make_discoverer("nope")
        with pytest.raises(UnknownAlgorithmError):
            canonical_algorithm("nope")

    def test_listing_matches_names(self):
        assert tuple(s.name for s in list_algorithms()) == ALGORITHM_NAMES
        assert all(s.summary for s in list_algorithms())
