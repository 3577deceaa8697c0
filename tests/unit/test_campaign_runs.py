"""What a store refresh and a store auction leave behind: the auction
prices the published index outside the campaign lock, assembling no
``Dataset``, and neither run leaves its pair tables on the live
campaign."""

from __future__ import annotations

import gc
import threading
import tracemalloc

import pytest

from repro.core import DatasetIndex
from repro.core.date import DATE
from repro.datasets.qatar_living import generate_qatar_living_like
from repro.mechanism.imc2 import IMC2
from repro.streaming import CampaignStore, OnlineDATE, replay_batches
from repro.types import Dataset

CAP = 0.8
#: How long the gated auction waits for the test to release it.  A
#: store that prices under the campaign lock blocks the concurrent read
#: and ingest until this expires, so the test fails instead of hanging.
GATE_SECONDS = 5.0


@pytest.fixture(scope="module")
def batches():
    dataset = generate_qatar_living_like(
        seed=1, n_tasks=100, n_workers=40, n_copiers=10, target_claims=1500
    )
    return replay_batches(dataset, 4)


def _store_with(batches) -> CampaignStore:
    store = CampaignStore()
    store.create("c")
    for seq, batch in enumerate(batches, start=1):
        store.ingest("c", batch, seq=seq)
    return store


def test_reads_and_ingests_do_not_wait_for_the_auction(monkeypatch, batches):
    online = OnlineDATE()
    for batch in batches[:3]:
        online.ingest(batch)
    reference = IMC2(requirement_cap=CAP).run(
        online.dataset, truth=DATE().run(online.dataset)
    )

    store = _store_with(batches[:3])
    finished: list[str] = []
    priced = threading.Event()
    release = threading.Event()
    run = IMC2.run

    def gated_run(self, dataset, **kwargs):
        priced.set()
        release.wait(GATE_SECONDS)
        finished.append("auction")
        return run(self, dataset, **kwargs)

    monkeypatch.setattr(IMC2, "run", gated_run)
    outcome = []
    auction = threading.Thread(
        target=lambda: outcome.append(store.auction("c", requirement_cap=CAP))
    )
    auction.start()
    assert priced.wait(30.0)

    def read():
        store.truths("c")
        finished.append("truths")

    def ingest():
        store.ingest("c", batches[3], seq=4)
        finished.append("ingest")

    others = [threading.Thread(target=read), threading.Thread(target=ingest)]
    for thread in others:
        thread.start()
    for thread in others:
        thread.join(2 * GATE_SECONDS)
    release.set()
    auction.join(30.0)

    assert sorted(finished[:2]) == ["ingest", "truths"]
    assert finished[2] == "auction"
    assert store.get("c").applied_seq == 4
    # The auction priced the campaign as its refresh saw it, before the
    # concurrent ingest, exactly as the batch-mode mechanism does.
    (got,) = outcome
    assert got.auction.winner_ids == reference.auction.winner_ids
    assert got.auction.payments == reference.auction.payments


def test_reads_do_not_wait_for_a_refresh(monkeypatch, batches):
    store = _store_with(batches)
    before = store.truths("c")
    reputations = store.worker_accuracy("c")
    started = threading.Event()
    release = threading.Event()
    finished: list[str] = []
    run = DATE.run

    def gated_run(self, dataset, **kwargs):
        started.set()
        release.wait(GATE_SECONDS)
        return run(self, dataset, **kwargs)

    monkeypatch.setattr(DATE, "run", gated_run)
    refreshed = []

    def refresh():
        refreshed.append(store.estimate("c", refresh=True))
        finished.append("refresh")

    refresher = threading.Thread(target=refresh)
    refresher.start()
    assert started.wait(30.0)

    reads = {}

    def read(name, call):
        reads[name] = call("c")
        finished.append(name)

    readers = [
        threading.Thread(target=read, args=(name, call))
        for name, call in (
            ("truths", store.truths),
            ("worker_accuracy", store.worker_accuracy),
            ("snapshot", store.snapshot),
        )
    ]
    for thread in readers:
        thread.start()
    for thread in readers:
        thread.join(2 * GATE_SECONDS)
    release.set()
    refresher.join(30.0)

    assert sorted(finished[:3]) == ["snapshot", "truths", "worker_accuracy"]
    assert finished[3] == "refresh"
    # Every read answered from the state published before the refresh:
    # truths and confidence (and the snapshot's reputations) together.
    assert reads["truths"] == before
    assert reads["worker_accuracy"] == reputations
    snapshot = reads["snapshot"]
    assert {k: snapshot[k] for k in ("truths", "confidence")} == before
    assert snapshot["worker_accuracy"] == reputations
    # Once the refresh is published, reads see it whole.
    (result,) = refreshed
    assert store.truths("c") == {
        "truths": dict(result.truths),
        "confidence": dict(result.confidence),
    }


def test_refresh_and_auction_keep_no_memory(batches):
    # Warm up imports and metric families on a throwaway campaign, so
    # the measured store retains only what the runs leave behind.
    warm = _store_with(batches[:2])
    warm.estimate("c", refresh=True)
    warm.auction("c", requirement_cap=CAP)
    del warm
    gc.collect()

    tracemalloc.start()
    try:
        store = _store_with(batches)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        store.estimate("c", refresh=True)
        gc.collect()
        after_refresh = tracemalloc.get_traced_memory()[0]
        store.auction("c", requirement_cap=CAP)
        gc.collect()
        after_auction = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()

    assert after_refresh <= 1.2 * before
    assert after_auction <= 1.2 * before


def test_an_auction_prices_the_published_index(monkeypatch, batches):
    store = _store_with(batches)
    reference = IMC2(requirement_cap=CAP).run(
        store.get("c").online.dataset, truth=store.estimate("c", refresh=True)
    )
    calls: list[str] = []
    check, extended = Dataset.__post_init__, DatasetIndex.extended

    def counted_check(self):
        calls.append("Dataset")
        check(self)

    def counted_extended(self, **delta):
        calls.append("extended")
        return extended(self, **delta)

    monkeypatch.setattr(Dataset, "__post_init__", counted_check)
    monkeypatch.setattr(DatasetIndex, "extended", counted_extended)
    outcome = store.auction("c", requirement_cap=CAP)
    # The refresh's private copy is the only one; no campaign is
    # re-assembled for stage 2.
    assert calls == ["extended"]
    assert outcome.auction.winner_ids == reference.auction.winner_ids
    assert outcome.auction.payments == reference.auction.payments
