"""Algorithm-zoo benchmark: per-algorithm fit cost on one shared index.

Every registry member fits the same ``BENCH_SCALE`` synthetic campaign
(60 tasks, 40 workers, 25% copiers, ~1200 claims), so the per-test
durations are directly comparable across algorithms.

- **Exactness** (`test_fit`): always run, everywhere.  Each fit is
  bit-identical across fresh discoverers, lands its precision in
  [0, 1], and resolves every answered task.
- **Native speed** (`test_native_fit_speedup_over_enumeration`): the
  three vectorized natives (TruthFinder, FDS, LCA) each beat the
  exhaustive-enumeration baseline ED by >= 5x on the shared index.
  Hardware-local wall-clock gate — excluded from shared-runner CI like
  every other speedup test; run locally with::

      pytest benchmarks/test_discovery_bench.py -k speedup -s
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from repro.core.indexing import DatasetIndex
from repro.datasets import generate_qatar_living_like
from repro.discovery import ALGORITHM_NAMES, make_discoverer
from repro.simulation.metrics import precision

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED

pytestmark = pytest.mark.filterwarnings("ignore::repro.errors.ConvergenceWarning")


@pytest.fixture(scope="module")
def zoo_campaign():
    """One shared campaign at the common benchmark scale."""
    dataset = generate_qatar_living_like(
        seed=BENCH_SEED,
        n_tasks=BENCH_SCALE.n_tasks,
        n_workers=BENCH_SCALE.n_workers,
        n_copiers=BENCH_SCALE.n_copiers,
        target_claims=BENCH_SCALE.target_claims,
    )
    return dataset, DatasetIndex(dataset)


def _fit(name, index):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_discoverer(name).run(index.dataset, index=index)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_fit(name, zoo_campaign):
    """Timed fit of one zoo member; exactness asserted alongside."""
    dataset, index = zoo_campaign
    result = _fit(name, index)
    again = _fit(name, index)
    assert result.truths == again.truths
    assert result.worker_accuracy == again.worker_accuracy
    assert np.array_equal(result.accuracy_matrix, again.accuracy_matrix)
    answered = {task_id for _, task_id in dataset.claims}
    assert set(result.truths) == answered
    assert 0.0 <= precision(result, dataset) <= 1.0
    print(f"\n{name}: precision {precision(result, dataset):.4f}")


def test_native_fit_speedup_over_enumeration(zoo_campaign):
    """Vectorized natives each beat exhaustive enumeration by >= 5x."""
    _, index = zoo_campaign

    def cost(name: str) -> float:
        _fit(name, index)  # warm caches out of the timed region
        start = time.perf_counter()
        _fit(name, index)
        return time.perf_counter() - start

    baseline = cost("ED")
    for name in ("TruthFinder", "FDS", "LCA"):
        elapsed = cost(name)
        speedup = baseline / elapsed
        print(f"\n{name}: {elapsed:.4f}s vs ED {baseline:.4f}s ({speedup:.1f}x)")
        assert speedup >= 5.0, f"{name} only {speedup:.1f}x faster than ED"
