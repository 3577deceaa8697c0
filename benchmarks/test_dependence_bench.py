"""Dependence-engine benchmark: incremental aggregates.

Exercises the incremental path of the pairwise dependence engine
(DESIGN.md §12) at ~10x the shared benchmark scale — large enough that
the (pair, shared task) row table dominates the DATE iteration cost —
and gates the acceptance criteria:

- **Exactness** (`test_incremental_matches_full_bitwise`): always run,
  everywhere.  The incremental refresh is *bit-identical* to a full
  scoring pass.
- **Incremental speed** (`test_incremental_ingest_speedup`): a refresh
  touching <= 10% of tasks is >= 5x faster than the full recompute it
  replaces.  Excluded from shared-runner CI like every other
  wall-clock gate; run locally with::

      pytest benchmarks/test_dependence_bench.py -k speedup -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.config import DateConfig
from repro.core.engine import IncrementalDependence, pairwise_dependence_arrays
from repro.core.indexing import DatasetIndex
from repro.datasets import generate_qatar_living_like

from benchmarks.conftest import BENCH_SEED

#: ~10x the streaming-bench claim volume (~30x the shared BENCH_SCALE):
#: the ~1M-row pair table this scale induces is what the incremental
#: path exists to beat.
DEP_SCALE = dict(n_tasks=2000, n_workers=800, n_copiers=200, target_claims=40000)
#: Fraction of tasks an "ingest-like" perturbation touches (<= 10% per
#: the acceptance gate).  Affected-pair coverage grows much faster than
#: the touch fraction — at this scale a 3% task touch already re-sums
#: ~10% of the pair rows, and a 10% touch re-sums ~40% (the bit-exact
#: contract forces whole-segment re-summation for every affected pair,
#: so that is the physics, not overhead).
TOUCH_FRACTION = 0.03
PERTURB_ROUNDS = 5


@pytest.fixture(scope="module")
def dep_state():
    """Index, mid-fixed-point inputs, and kernel parameters, warmed."""
    dataset = generate_qatar_living_like(seed=BENCH_SEED, **DEP_SCALE)
    index = DatasetIndex(dataset)
    arrays = index.arrays
    cfg = DateConfig()
    collision = cfg.false_values.collision_array(index)
    rng = np.random.default_rng(BENCH_SEED)
    truth_codes = arrays.majority_codes()
    claim_acc = rng.uniform(0.2, 0.95, arrays.n_claims)
    params = dict(
        copy_prob_r=cfg.copy_prob_r,
        prior_alpha=cfg.prior_alpha,
        collision=collision,
        accuracy_clamp=cfg.accuracy_clamp,
    )
    # Warm the pair tables so timings measure the kernels.
    pairwise_dependence_arrays(arrays, truth_codes, claim_acc, **params)
    return index, arrays, truth_codes, claim_acc, params


def _perturb(arrays, truth_codes, claim_acc, rng):
    """An ingest-like edit: new codes + accuracies on <=10% of tasks."""
    n_tasks = arrays.n_tasks
    touched = rng.choice(
        n_tasks, size=max(1, int(TOUCH_FRACTION * n_tasks)), replace=False
    )
    codes = truth_codes.copy()
    acc = claim_acc.copy()
    for j in touched:
        n_codes = int(arrays.task_group_ptr[j + 1] - arrays.task_group_ptr[j])
        if n_codes:
            codes[j] = rng.integers(0, n_codes)
        c0, c1 = int(arrays.task_ptr[j]), int(arrays.task_ptr[j + 1])
        acc[c0:c1] = rng.uniform(0.2, 0.95, c1 - c0)
    return codes, acc, touched


def test_incremental_matches_full_bitwise(dep_state):
    """Engine refreshes == full recomputes, bit for bit, every round."""
    _, arrays, truth_codes, claim_acc, params = dep_state
    engine = IncrementalDependence(arrays, **params)
    got = engine.refresh(truth_codes, claim_acc)
    want = pairwise_dependence_arrays(arrays, truth_codes, claim_acc, **params)
    assert np.array_equal(got.p_ab, want.p_ab)
    assert np.array_equal(got.p_ba, want.p_ba)
    rng = np.random.default_rng(BENCH_SEED + 1)
    codes, acc = truth_codes, claim_acc
    for _ in range(PERTURB_ROUNDS):
        codes, acc, _touched = _perturb(arrays, codes, acc, rng)
        got = engine.refresh(codes, acc)
        want = pairwise_dependence_arrays(arrays, codes, acc, **params)
        assert np.array_equal(got.p_ab, want.p_ab)
        assert np.array_equal(got.p_ba, want.p_ba)


def test_incremental_ingest_speedup(dep_state):
    """The acceptance gate: <=10%-of-tasks refresh >= 5x full recompute."""
    _, arrays, truth_codes, claim_acc, params = dep_state
    engine = IncrementalDependence(arrays, **params)
    engine.refresh(truth_codes, claim_acc)
    rng = np.random.default_rng(BENCH_SEED + 2)
    codes, acc = truth_codes, claim_acc
    inc_total = 0.0
    full_total = 0.0
    rows = []
    for round_ in range(PERTURB_ROUNDS):
        codes, acc, touched = _perturb(arrays, codes, acc, rng)
        start = time.perf_counter()
        got = engine.refresh(codes, acc)
        inc_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        want = pairwise_dependence_arrays(arrays, codes, acc, **params)
        full_ms = (time.perf_counter() - start) * 1e3
        assert np.array_equal(got.p_ab, want.p_ab)
        assert np.array_equal(got.p_ba, want.p_ba)
        inc_total += inc_ms
        full_total += full_ms
        rows.append(
            f"round {round_}: {len(touched):3d} tasks touched | "
            f"incremental {inc_ms:7.1f} ms, full {full_ms:7.1f} ms "
            f"({full_ms / inc_ms:5.1f}x)"
        )
    speedup = full_total / inc_total
    print()
    print("\n".join(rows))
    print(
        f"totals: incremental {inc_total:.1f} ms, full {full_total:.1f} ms, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= 5.0, (
        f"incremental refresh only {speedup:.2f}x faster than full recompute"
    )
