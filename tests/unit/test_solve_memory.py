"""A solve holds only what it still reads.

DATE and ED (:class:`EnumerateDependence` shares ``DATE.run``):

- a cold ``run(dataset)`` builds its own index, walks its pair tables
  once and drops them before :func:`~repro.core.date.build_result`
  allocates the dense accuracy matrix: the pair tables, the slot map,
  Eq. 16's launch arrays (raw addresses into the slot map) and
  ``pair_rows_by_task``.  Its ``dependence`` still views the ``pair_a``
  and ``pair_b`` the passes ran over, and equals a run on a caller's
  index bit for bit;
- a run on a caller's index keeps all four, so runs that share one
  index walk once between them;
- every iteration's dependence pass writes into the previous one's two
  arrays, which Eq. 16 has consumed by then.

The traced peak of a cold DATE run on a mid-size campaign, in two
parts, is pinned at the dense matrix, the two outputs and the index
arrays, plus slack.  Holding the pair tables while the dense matrix is
allocated, or a dependence pass that allocates fresh outputs beside the
previous ones, breaks it.

Every :class:`~repro.core.engine.DependenceArrays` a pass or an
:class:`~repro.core.engine.IncrementalDependence` returns carries the
pair tables it was computed over, and
:func:`~repro.core.engine.dependence_table` refuses one that carries
none rather than view nothing.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.core.date as date_mod
import repro.core.engine as engine
import repro.core.indexing as indexing
from repro import DATE
from repro.baselines.enumerate_dependence import EnumerateDependence
from repro.core import DatasetIndex
from repro.core.engine import (
    DependenceArrays,
    IncrementalDependence,
    dependence_table,
    pairwise_dependence_arrays,
)
from repro.core.falsedist import UniformFalseValues
from repro.datasets import generate_qatar_living_like

#: The cached entries a cold run drops before assembling its result.
RELEASED = ("_pair_tables", "multi_group_slots", "multi_group_launch", "pair_rows_by_task")


@pytest.fixture(params=[DATE, EnumerateDependence], ids=["DATE", "ED"])
def discoverer(request):
    return request.param


@pytest.fixture
def walks(monkeypatch):
    """Every index whose pair tables are walked, in walk order."""
    walked = []
    walk = indexing._walk_pair_tables

    def counting(arrays):
        walked.append(arrays)
        return walk(arrays)

    monkeypatch.setattr(indexing, "_walk_pair_tables", counting)
    return walked


def patch_dependence(monkeypatch, before=None):
    """Record DATE's dependence passes; ``before(arrays)`` runs first."""
    passes = []
    dependence = date_mod.pairwise_dependence_arrays

    def recording(arrays, *args, **kwargs):
        if before is not None:
            before(arrays)
        passes.append(dependence(arrays, *args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(date_mod, "pairwise_dependence_arrays", recording)
    return passes


def assert_same_dependence(got, want):
    assert got.ids == want.ids
    for name in ("pair_a", "pair_b", "p_ab", "p_ba"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_a_cold_run_walks_once_and_drops_its_tables_before_the_result(
    discoverer, qlf_small, walks, monkeypatch
):
    held = []
    dense = date_mod.dense_accuracy

    def checking(arrays, claim_acc):
        held.append([name for name in RELEASED if name in arrays.__dict__])
        return dense(arrays, claim_acc)

    monkeypatch.setattr(date_mod, "dense_accuracy", checking)
    # pair_rows_by_task goes too when something built it during the run.
    patch_dependence(monkeypatch, before=lambda arrays: arrays.pair_rows_by_task)
    result = discoverer().run(qlf_small)
    assert len(walks) == 1
    assert held == [[]]

    reference = discoverer().run(qlf_small, index=DatasetIndex(qlf_small))
    assert len(walks) == 2
    assert len(result.dependence) > 0
    assert_same_dependence(result.dependence, reference.dependence)


def test_a_run_on_a_callers_index_keeps_its_tables(discoverer, qlf_small, walks):
    index = DatasetIndex(qlf_small)
    arrays = index.arrays
    kept = {name: getattr(arrays, name) for name in RELEASED}
    for _ in range(2):
        result = discoverer().run(qlf_small, index=index)
        assert all(arrays.__dict__.get(name) is value for name, value in kept.items())
    assert walks == [arrays]
    assert np.shares_memory(result.dependence.pair_a, arrays.pair_a)


def test_every_iteration_writes_the_same_two_arrays(discoverer, qlf_small, monkeypatch):
    passes = patch_dependence(monkeypatch)
    result = discoverer().run(qlf_small)
    assert len(passes) == result.iterations >= 2
    for dependence in passes[1:]:
        assert dependence.p_ab is passes[0].p_ab
        assert dependence.p_ba is passes[0].p_ba
    assert np.shares_memory(result.dependence.p_ab, passes[0].p_ab)
    assert np.shares_memory(result.dependence.p_ba, passes[0].p_ba)


def test_every_dependence_array_carries_its_pairs(qlf_small):
    index = DatasetIndex(qlf_small)
    arrays = index.arrays
    params = dict(
        copy_prob_r=0.4,
        prior_alpha=0.2,
        collision=UniformFalseValues().collision_array(index),
    )
    truth_codes, claim_acc = arrays.majority_codes(), np.full(arrays.n_claims, 0.7)
    full = pairwise_dependence_arrays(arrays, truth_codes, claim_acc, **params)
    incremental = IncrementalDependence(arrays, **params).refresh(truth_codes, claim_acc)
    assert len(full.p_ab) > 0
    for dependence in (full, incremental):
        assert dependence.pair_a is arrays.pair_a and dependence.pair_b is arrays.pair_b
        assert_same_dependence(dependence_table(arrays, dependence), dependence_table(arrays, full))
    with pytest.raises(ValueError, match="pair_a"):
        dependence_table(arrays, DependenceArrays(p_ab=full.p_ab, p_ba=full.p_ba))


def test_a_cold_run_peaks_at_its_result(monkeypatch):
    # Many workers over few tasks: the dense matrix outweighs the pair
    # tables, and a campaign this size runs its passes in parts.  Two
    # parts whatever the core count, since the slack grows with the
    # block buffers of every part and must stay below the pair tables
    # a run that holds them keeps; the pool is made at its real size.
    engine._parts_pool()
    monkeypatch.setattr(engine, "_PARTS", 2)
    dataset = generate_qatar_living_like(
        seed=2, n_tasks=600, n_workers=1200, n_copiers=300, target_claims=12000
    )
    DATE().run(dataset)  # kernels, pool and first-call caches
    tracemalloc.start()
    try:
        index = DatasetIndex(dataset)
        index_bytes = tracemalloc.get_traced_memory()[0]
        arrays = index.arrays
        assert arrays.n_rows >= engine._PART_MIN_ROWS
        n_pairs, longest_pair = arrays.n_pairs, int(np.diff(arrays.pair_ptr).max())
        released = sum(table.nbytes for table in arrays._pair_tables[2:]) + sum(
            slots.nbytes for slots in arrays.multi_group_slots
        )
        del index, arrays
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        DATE().run(dataset)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()

    dense = 8 * dataset.n_workers * dataset.n_tasks
    outputs = 16 * n_pairs
    # The index: its claim arrays plus the pair_a/pair_b the result views.
    index_arrays = index_bytes + 8 * n_pairs
    # A pass's block buffers and block-pair scratch, a few float64 words
    # of iteration state a claim, and the result's dicts.
    blocks = engine._PARTS * 3 * 8 * (engine._BLOCK_ROWS + longest_pair)
    slack = 2 * blocks + 64 * len(dataset.claims) + 1024 * 1024
    assert dense > released
    assert peak <= dense + outputs + index_arrays + slack
