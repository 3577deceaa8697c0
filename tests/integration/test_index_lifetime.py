"""Reference counting alone frees every index the product is done with.

A :class:`~repro.core.indexing.DatasetIndex` owns its
:class:`~repro.core.indexing.ClaimArrays` and the arrays never point
back, so an index, its arrays and its pair tables are freed the moment
the last reference goes, with the cyclic collector switched off.  Each
test below runs one operation of the product that lets an index go, and
checks that every index it let go (and those indexes' arrays) is dead
when it returns and that :func:`gc.collect` then finds nothing:

- an ingest, which replaces the published index with its extension;
- a refresh, which runs on a private copy of the index;
- a store auction, which refreshes and prices a private copy;
- a journal recovery, whose store is then discarded;
- an evict, which drops a campaign;
- a cold ``DATE().run(dataset)``, which builds its own index.

The last test keeps a campaign's arrays without their index and runs a
full dependence pass on them alone, against the scalar oracle.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import DatasetIndex
from repro.core.date import DATE
from repro.core.engine import dependence_table, pairwise_dependence_arrays
from repro.core.falsedist import UniformFalseValues
from repro.datasets.qatar_living import generate_qatar_living_like
from repro.streaming import CampaignStore, OnlineDATE, replay_batches

from tests.oracles import compute_pairwise_dependence, initial_accuracy_matrix, majority_vote

#: The store auction's requirement cap; with it the campaign below is
#: feasible.
CAP = 0.8


@pytest.fixture(scope="module")
def dataset():
    return generate_qatar_living_like(
        seed=1, n_tasks=100, n_workers=40, n_copiers=10, target_claims=1500
    )


@pytest.fixture(scope="module")
def batches(dataset):
    return replay_batches(dataset, 4)


@pytest.fixture
def born(monkeypatch):
    """Weak references to every index built or extended from now on,
    each with its arrays."""
    refs: list[tuple[weakref.ref, weakref.ref]] = []
    init, extended = DatasetIndex.__init__, DatasetIndex.extended

    def tracked_init(self, dataset):
        init(self, dataset)
        refs.append((weakref.ref(self), weakref.ref(self.arrays)))

    def tracked_extended(self, **delta):
        ext = extended(self, **delta)
        refs.append((weakref.ref(ext.index), weakref.ref(ext.index.arrays)))
        return ext

    monkeypatch.setattr(DatasetIndex, "__init__", tracked_init)
    monkeypatch.setattr(DatasetIndex, "extended", tracked_extended)
    return refs


def refs_to(index: DatasetIndex) -> tuple[weakref.ref, weakref.ref]:
    return weakref.ref(index), weakref.ref(index.arrays)


def alive(refs) -> list:
    """The objects of ``refs`` (pairs of weak references) still alive."""
    return [obj for pair in refs for obj in (ref() for ref in pair) if obj is not None]


@contextmanager
def collector_off():
    """Collect what earlier code left behind, then run the block with
    the cyclic collector off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _online(batches, **kwargs) -> OnlineDATE:
    online = OnlineDATE(**kwargs)
    for batch in batches:
        online.ingest(batch)
    return online


def _store(batches, **kwargs) -> CampaignStore:
    store = CampaignStore(**kwargs)
    store.create("c")
    for seq, batch in enumerate(batches, start=1):
        store.ingest("c", batch, seq=seq)
    return store


def test_an_ingest_frees_the_index_it_replaces(batches):
    online = _online(batches[:2])
    online.refresh()
    online.ingest(batches[2])
    with collector_off():
        replaced = refs_to(online.index)
        online.ingest(batches[3])
        assert alive([replaced]) == []
        assert gc.collect() == 0


def test_a_periodic_refresh_frees_the_replaced_index_and_its_copy(batches, born):
    online = _online(batches[:3], refresh_every=4)
    with collector_off():
        replaced = refs_to(online.index)
        born.clear()
        assert online.ingest(batches[3]).refreshed
        # The extension is published; the refresh's private copy is not.
        assert alive(born) == [online.index, online.index.arrays]
        assert alive([replaced]) == []
        assert gc.collect() == 0


def test_a_refresh_frees_its_private_copy(batches, born):
    online = _online(batches)
    with collector_off():
        born.clear()
        result = online.refresh()
        assert len(born) == 1
        assert alive(born) == []
        assert gc.collect() == 0
    assert result.truths == online.truths


def test_a_store_auction_frees_its_private_copies(batches, born):
    store = _store(batches)
    with collector_off():
        born.clear()
        outcome = store.auction("c", requirement_cap=CAP)
        # The refresh's copy and the mechanism's.
        assert len(born) == 2
        assert alive(born) == []
        assert gc.collect() == 0
    assert outcome.auction.winner_ids


def test_a_recovered_store_frees_its_indexes_when_discarded(batches, born, tmp_path):
    store = _store(batches[:3], journal_dir=tmp_path)
    store.estimate("c", refresh=True)
    store.ingest("c", batches[3], seq=4)
    store.close()
    del store
    with collector_off():
        born.clear()
        recovered = CampaignStore(journal_dir=tmp_path)
        assert recovered.last_recovery[0]["status"] == "recovered"
        assert alive(born)
        recovered.close()
        del recovered
        assert alive(born) == []
        assert gc.collect() == 0


def test_an_evicted_campaign_frees_its_indexes(batches, born):
    born.clear()
    store = _store(batches)
    store.estimate("c", refresh=True)
    with collector_off():
        store.evict("c")
        assert alive(born) == []
        assert gc.collect() == 0
    assert len(store) == 0


def test_a_cold_run_frees_the_index_it_builds(dataset, born):
    with collector_off():
        born.clear()
        result = DATE().run(dataset)
        assert len(born) == 1
        assert alive(born) == []
        assert gc.collect() == 0
    assert result.truths


def test_arrays_outlive_their_index(dataset):
    index = DatasetIndex(dataset)
    arrays = index.arrays
    collision = UniformFalseValues().collision_array(index)
    want = compute_pairwise_dependence(
        index,
        majority_vote(index),
        initial_accuracy_matrix(index, 0.5),
        copy_prob_r=0.4,
        prior_alpha=0.2,
    )
    assert "_pair_tables" not in arrays.__dict__
    dropped = weakref.ref(index)
    del index
    assert dropped() is None
    # The pair tables are walked from the arrays alone, after the index
    # is gone.
    got = dependence_table(
        arrays,
        pairwise_dependence_arrays(
            arrays,
            arrays.majority_codes(),
            np.full(arrays.n_claims, 0.5),
            copy_prob_r=0.4,
            prior_alpha=0.2,
            collision=collision,
        ),
    )
    assert set(got) == set(want)
    for pair in want:
        assert got[pair].p_a_to_b == pytest.approx(want[pair].p_a_to_b, abs=1e-12)
        assert got[pair].p_b_to_a == pytest.approx(want[pair].p_b_to_a, abs=1e-12)
