"""Allocation pin: the dependence and Eq. 16 passes allocate per block,
per pair and per claim, never per pair-table row or per slot.

One :func:`~repro.core.engine.pairwise_dependence_arrays` call and one
:func:`~repro.core.engine.independence_flat` call are traced with
:mod:`tracemalloc` (numpy reports its buffers to it, from every thread)
on a campaign with hundreds of rows per pair and over ten slots per
claim.  Each pass's peak must stay under a budget of its block buffers
plus a few words per pair and per claim.  Both budgets are well below
one row-length or slot-length int64 array, so a per-call widening of
the int32 tables (``np.ascontiguousarray(..., dtype=np.int64)``), a
full-length row-term array or a copy of the slot map each fail it.

A second campaign has many pairs and about one row each, so there the
per-pair arrays dominate.  The dependence pass sums and normalizes
block by block, so besides its two outputs it holds only block-sized
scratch per part: the independent-hypothesis sum and the
normalization's two temporaries, each one float64 word per pair of a
block.  Its peak may reach the two outputs plus one float64 word per
pair; a part-sized sum array, or the two part-sized temporaries, each
break that.  Given ``out=`` buffers it allocates nothing that grows
with the pair count, so the budget is the block scratch alone, less
than the two fresh outputs.

Block buffers are per part, so every pass here runs in two parts
(``engine._PARTS`` pinned): with one part per core, a many-core runner's
block buffers alone would outgrow the arrays each budget tells apart.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.core.engine as engine
from repro import Dataset, Task, WorkerProfile
from repro.core import DatasetIndex
from repro.core.engine import independence_flat, pairwise_dependence_arrays

#: Room for the small per-call arrays (part cuts, bucket pointers).
SLACK = 64 * 1024


@pytest.fixture(autouse=True)
def two_parts(monkeypatch):
    """Every pass here runs in two parts, whatever the runner's core
    count, so the per-part block buffers in each budget stay below the
    row- and pair-length arrays it tells apart.  The pool is made at its
    real size first, so later tests keep every core."""
    engine._parts_pool()
    monkeypatch.setattr(engine, "_PARTS", 2)


@pytest.fixture(scope="module")
def arrays():
    rng = np.random.default_rng(3)
    n_workers, n_tasks = 40, 1500
    tasks = tuple(Task(task_id=f"t{j}", domain=("A", "B")) for j in range(n_tasks))
    claims = {
        (f"w{i}", f"t{j}"): "AB"[int(rng.random() < 0.3)]
        for j in range(n_tasks)
        for i in range(n_workers)
        if rng.random() < 0.75
    }
    workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n_workers))
    index = DatasetIndex(Dataset(tasks=tasks, workers=workers, claims=claims))
    arrays = index.arrays
    assert len(arrays.ps_claim_a) > 5 * engine._BLOCK_ROWS
    assert len(arrays.ps_claim_a) > 400 * arrays.n_pairs
    assert sum(s.size for s in arrays.multi_group_slots) > 10 * arrays.n_claims
    return arrays


@pytest.fixture(scope="module")
def pair_heavy_arrays():
    rng = np.random.default_rng(5)
    n_workers, n_tasks = 1500, 60
    tasks = tuple(Task(task_id=f"t{j}", domain=("A", "B")) for j in range(n_tasks))
    claims = {
        (f"w{i}", f"t{j}"): "AB"[int(rng.random() < 0.3)]
        for j in range(n_tasks)
        for i in range(n_workers)
        if rng.random() < 0.07
    }
    workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n_workers))
    arrays = DatasetIndex(Dataset(tasks=tasks, workers=workers, claims=claims)).arrays
    assert arrays.n_pairs > 200_000
    assert len(arrays.ps_claim_a) < 1.2 * arrays.n_pairs
    return arrays


def traced_peak(call) -> int:
    """Bytes allocated at ``call``'s peak above what was live before;
    ``call`` runs once untraced first, for the caches and the pool."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def dependence_pass(arrays, out=None):
    """One dependence pass over inputs built outside it, into ``out``
    when given."""
    truth_codes = arrays.majority_codes()
    claim_acc = np.full(arrays.n_claims, 0.7)
    # Every task of both fixtures has a two-value domain: the uniform
    # model's collision probability is 1 / (2 - 1) on each.
    collision = np.ones(arrays.n_tasks)
    return lambda: pairwise_dependence_arrays(
        arrays, truth_codes, claim_acc, copy_prob_r=0.4, prior_alpha=0.2,
        collision=collision, out=out,
    )


def test_dependence_pass_allocates_blocks_not_rows(arrays):
    longest_pair = int(np.diff(arrays.pair_ptr).max())
    blocks = engine._PARTS * 3 * 8 * (engine._BLOCK_ROWS + longest_pair)
    budget = blocks + 128 * arrays.n_pairs + SLACK
    assert budget < 8 * len(arrays.ps_claim_a)
    assert traced_peak(dependence_pass(arrays)) <= budget


def test_dependence_pass_per_pair_bytes(pair_heavy_arrays):
    arrays = pair_heavy_arrays
    longest_pair = int(np.diff(arrays.pair_ptr).max())
    blocks = engine._PARTS * 3 * 8 * (engine._BLOCK_ROWS + longest_pair)
    budget = blocks + 24 * arrays.n_pairs + SLACK
    assert traced_peak(dependence_pass(arrays)) <= budget


def test_dependence_pass_into_out_allocates_no_pair_arrays(pair_heavy_arrays):
    arrays = pair_heavy_arrays
    longest_pair = int(np.diff(arrays.pair_ptr).max())
    blocks = engine._PARTS * 3 * 8 * (engine._BLOCK_ROWS + longest_pair)
    # Per part, the block's independent sum and its normalization's two
    # temporaries: one float64 each per pair of a block, and a block has
    # no more pairs than rows, so as much again as the block buffers.
    budget = 2 * blocks + SLACK
    assert budget < 16 * arrays.n_pairs
    fresh = dependence_pass(arrays)()
    into_out = dependence_pass(arrays, out=(fresh.p_ab, fresh.p_ba))
    assert traced_peak(into_out) <= budget
    result = into_out()
    assert result.p_ab is fresh.p_ab and result.p_ba is fresh.p_ba


def test_independence_pass_allocates_claims_not_slots(arrays):
    result = dependence_pass(arrays)()
    n_slots = sum(s.size for s in arrays.multi_group_slots)
    largest = max(m for m, _ in arrays.multi_group_buckets)
    work = engine._PARTS * 8 * (largest * largest + 5 * largest)
    budget = 8 * arrays.n_claims + work + SLACK
    assert budget < 8 * n_slots
    peak = traced_peak(lambda: independence_flat(arrays, result, copy_prob_r=0.4))
    assert peak <= budget
