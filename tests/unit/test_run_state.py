"""A DATE run keeps its state in its arguments and its index.

- A false-value model's answers for an index depend on that index
  alone, whatever other indexes the same instance served before.
- One config (and so one model instance) shared by concurrent runs
  gives each run exactly the result it gives alone.
- A finished run leaves no kernel memory behind.
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc

import pytest

from repro import DATE, DateConfig
from repro.core import DatasetIndex
from repro.core.falsedist import EmpiricalFalseValues, ZipfFalseValues
from repro.datasets.qatar_living import generate_qatar_living_like

pytestmark = pytest.mark.filterwarnings("ignore::repro.errors.ConvergenceWarning")

MODELS = {"zipf": lambda: ZipfFalseValues(1.3), "empirical": lambda: EmpiricalFalseValues(0.5)}


def _campaign(seed: int, n_tasks: int):
    return generate_qatar_living_like(
        seed=seed,
        n_tasks=n_tasks,
        n_workers=24,
        n_copiers=6,
        target_claims=12 * n_tasks,
    )


def _answers(model, index: DatasetIndex) -> dict:
    """Everything a model says about ``index``, bit-exact."""
    arrays = index.arrays
    scalars = []
    for j in range(index.n_tasks):
        g0, g1 = int(arrays.task_group_ptr[j]), int(arrays.task_group_ptr[j + 1])
        values = list(arrays.group_values[g0:g1]) + ["unseen"]
        scalars.append(model.collision_probability(j, index).hex())
        for value in values:
            for truth in [None, *values]:
                scalars.append(model.value_probability(j, index, value, truth).hex())
    return {
        "collision": model.collision_array(index).tobytes(),
        "group_q": model.value_probability_array(index).tobytes(),
        "q_matrices": [q.tobytes() for q in model.value_probability_matrices(index)],
        "scalars": scalars,
    }


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_answers_depend_only_on_the_index(name):
    small = DatasetIndex(_campaign(seed=3, n_tasks=8))
    large = DatasetIndex(_campaign(seed=4, n_tasks=20))
    served = MODELS[name]()
    _answers(served, small)
    assert _answers(served, large) == _answers(MODELS[name](), large)
    assert _answers(served, small) == _answers(MODELS[name](), small)


def _digest(result) -> tuple:
    return (
        result.truths,
        result.iterations,
        result.accuracy_matrix.tobytes(),
        {task: c.hex() for task, c in result.confidence.items()},
        {
            pair: (post.p_a_to_b.hex(), post.p_b_to_a.hex())
            for pair, post in result.dependence.items()
        },
    )


@pytest.mark.parametrize("name", sorted(MODELS))
def test_shared_config_runs_concurrently_bit_identical(name):
    def config() -> DateConfig:
        return DateConfig(false_values=MODELS[name](), discounted_posterior=False)

    datasets = [_campaign(seed=10 + k, n_tasks=12 + 8 * k) for k in range(4)]
    expected = [_digest(DATE(config()).run(dataset)) for dataset in datasets]
    shared = DATE(config())
    rounds = 5
    start = threading.Barrier(len(datasets))
    got: list[list] = [[] for _ in datasets]

    def worker(k: int) -> None:
        for _ in range(rounds):
            start.wait(timeout=60)
            try:
                got[k].append(_digest(shared.run(datasets[k])))
            except Exception as exc:  # noqa: BLE001 - reported below
                got[k].append(repr(exc))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(datasets))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the runs finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, results in enumerate(got):
        assert results == [expected[k]] * rounds, f"dataset {k}"


def test_finished_run_retains_no_kernel_memory():
    dataset = generate_qatar_living_like(seed=1, n_tasks=600, target_claims=12000)
    # One-time state (lazy imports, compiled-kernel handles) on a tiny
    # campaign first, so only what the measured run leaves is counted.
    DATE().run(_campaign(seed=2, n_tasks=4))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = DATE().run(dataset)
        del result
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20, f"a finished run retains {retained / 2**20:.2f} MB"
