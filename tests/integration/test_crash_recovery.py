"""Kill-and-recover differential suite (DESIGN.md §15).

The durability contract under test: a campaign killed at *any* defined
fault point and recovered from its write-ahead journal ends up
**bit-identical** — truths, confidences, worker accuracies — to the
same campaign run uninterrupted, with every acknowledged batch applied
exactly once.  A crash is simulated by the seeded fault injector
(:mod:`repro.streaming.faults`); "restart" means constructing a fresh
:class:`CampaignStore` over the same journal directory, exactly what a
rebooted ``repro serve --journal-dir`` does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.qatar_living import generate_qatar_living_like
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.streaming import (
    CampaignStore,
    FaultInjector,
    InjectedCrash,
    OnlineDATE,
    StreamingApp,
    replay_batches,
)
from repro.streaming.faults import set_injector
from repro.streaming.journal import (
    JournalWriteError,
    journal_path,
    read_journal,
)


@pytest.fixture(scope="module")
def batches():
    dataset = generate_qatar_living_like(
        seed=11, n_tasks=24, n_workers=14, n_copiers=4, target_claims=260
    )
    return replay_batches(dataset, 5)


@pytest.fixture(autouse=True)
def _inert_injector():
    """Every test starts and ends with a rule-free process injector."""
    previous = set_injector(FaultInjector())
    yield
    set_injector(previous)


def _state(store: CampaignStore, campaign_id: str) -> dict:
    estimates = store.truths(campaign_id)
    return {
        "truths": estimates["truths"],
        "confidence": estimates["confidence"],
        "worker_accuracy": store.worker_accuracy(campaign_id),
        "applied_seq": store.get(campaign_id).applied_seq,
    }


def _uninterrupted(tmp_path, batches, *, refresh_after=None, **store_kwargs):
    """The reference run: same journaled code path, no crash."""
    store = CampaignStore(
        journal_dir=tmp_path / "reference", refresh_every=2, **store_kwargs
    )
    store.create("c")
    for seq, batch in enumerate(batches, start=1):
        store.ingest("c", batch, seq=seq)
        if refresh_after == seq:
            store.estimate("c", refresh=True)
    state = _state(store, "c")
    store.close()
    return state


class TestCrashDifferential:
    """Crash at every fault point; recovered state must be bit-identical."""

    @pytest.mark.parametrize("crash_seq", [1, 3, 5])
    @pytest.mark.parametrize(
        "rule, exc, journaled",
        [
            ("journal.pre_append:crash", InjectedCrash, False),
            ("journal.mid_append:partial", InjectedCrash, False),
            ("journal.post_append:crash", InjectedCrash, True),
        ],
        ids=["pre-append", "mid-append-torn", "post-append-pre-apply"],
    )
    def test_crash_during_batch_append(
        self, tmp_path, batches, rule, exc, journaled, crash_seq
    ):
        reference = _uninterrupted(tmp_path, batches)
        wal = tmp_path / "crashed"

        store = CampaignStore(journal_dir=wal, refresh_every=2)
        store.create("c")
        for seq in range(1, crash_seq):
            store.ingest("c", batches[seq - 1], seq=seq)
        # Arm the fault for exactly the next append, then "die" there.
        set_injector(FaultInjector.from_spec(rule, seed=17))
        with pytest.raises(exc):
            store.ingest("c", batches[crash_seq - 1], seq=crash_seq)
        set_injector(FaultInjector())
        # No orderly close: a killed process never flushes or unlocks.

        recovered = CampaignStore(journal_dir=wal, refresh_every=2)
        report = recovered.last_recovery[0]
        assert report["status"] == "recovered"
        assert recovered.get("c").applied_seq == (
            crash_seq if journaled else crash_seq - 1
        )
        # The client retries the unacknowledged seq, then the rest of
        # the stream.  If the crash landed after the fsync the retry
        # must deduplicate (exactly-once), else it must apply.
        update = recovered.ingest("c", batches[crash_seq - 1], seq=crash_seq)
        assert (update is None) == journaled
        for seq in range(crash_seq + 1, len(batches) + 1):
            recovered.ingest("c", batches[seq - 1], seq=seq)
        assert _state(recovered, "c") == reference
        recovered.close()

    def test_torn_tail_is_truncated_on_recovery(self, tmp_path, batches):
        wal = tmp_path / "crashed"
        store = CampaignStore(journal_dir=wal)
        store.create("c")
        store.ingest("c", batches[0], seq=1)
        set_injector(FaultInjector.from_spec("journal.mid_append:partial", seed=3))
        with pytest.raises(InjectedCrash):
            store.ingest("c", batches[1], seq=2)
        set_injector(FaultInjector())
        path = journal_path(wal, "c")
        assert read_journal(path).torn

        recovered = CampaignStore(journal_dir=wal)
        assert recovered.last_recovery[0]["torn"]
        # The file itself was healed: scanning it again finds no tear.
        assert not read_journal(path).torn
        recovered.close()

    def test_crash_mid_refresh(self, tmp_path, batches):
        reference = _uninterrupted(tmp_path, batches, refresh_after=3)
        wal = tmp_path / "crashed"

        store = CampaignStore(journal_dir=wal, refresh_every=2)
        store.create("c")
        for seq in range(1, 4):
            store.ingest("c", batches[seq - 1], seq=seq)
        # The refresh intent hits the journal, then the process dies
        # before the estimator computes or adopts anything.
        set_injector(FaultInjector.from_spec("store.mid_refresh:crash"))
        with pytest.raises(InjectedCrash):
            store.estimate("c", refresh=True)
        set_injector(FaultInjector())

        recovered = CampaignStore(journal_dir=wal, refresh_every=2)
        assert recovered.last_recovery[0]["refreshes"] == 1
        # The retried refresh plus the rest of the stream.
        recovered.estimate("c", refresh=True)
        for seq in range(4, len(batches) + 1):
            recovered.ingest("c", batches[seq - 1], seq=seq)
        assert _state(recovered, "c") == reference
        recovered.close()

    def test_recovery_is_idempotent(self, tmp_path, batches):
        reference = _uninterrupted(tmp_path, batches)
        wal = tmp_path / "live"
        store = CampaignStore(journal_dir=wal, refresh_every=2)
        store.create("c")
        for seq, batch in enumerate(batches, start=1):
            store.ingest("c", batch, seq=seq)
        store.close()

        once = CampaignStore(journal_dir=wal)
        assert once.recover() == []  # everything already live: no-op
        twice = CampaignStore(journal_dir=wal)
        assert _state(once, "c") == _state(twice, "c") == reference
        once.close()
        twice.close()


class TestRefreshReplay:
    """A journaled refresh is an intent that recovery re-runs."""

    def test_recovered_refresh_matches_live_refresh(self, tmp_path, batches):
        wal = tmp_path / "wal"
        store = CampaignStore(journal_dir=wal)
        store.create("c")
        for seq, batch in enumerate(batches, start=1):
            store.ingest("c", batch, seq=seq)
        store.estimate("c", refresh=True)
        live = store.estimate("c")
        state = _state(store, "c")
        store.close()

        recovered = CampaignStore(journal_dir=wal)
        assert recovered.last_recovery[0]["refreshes"] == 1
        assert _state(recovered, "c") == state
        replayed = recovered.estimate("c")
        assert replayed.truths == live.truths
        assert replayed.confidence == live.confidence
        assert replayed.worker_accuracy == live.worker_accuracy
        assert replayed.dependence == live.dependence
        assert replayed.support == live.support
        assert np.array_equal(replayed.accuracy_matrix, live.accuracy_matrix)
        assert replayed.iterations == live.iterations
        assert replayed.converged == live.converged
        recovered.close()

    def test_refresh_record_carries_only_its_position(self, tmp_path, batches):
        wal = tmp_path / "wal"
        store = CampaignStore(journal_dir=wal)
        store.create("c")
        for seq in (1, 2):
            store.ingest("c", batches[seq - 1], seq=seq)
        store.estimate("c", refresh=True)
        store.close()
        records = read_journal(journal_path(wal, "c")).records
        assert [r["kind"] for r in records] == ["create", "batch", "batch", "refresh"]
        assert records[-1] == {"kind": "refresh", "after_seq": 2}


class TestExactlyOnce:
    def test_duplicate_seq_is_acknowledged_not_reapplied(self, tmp_path, batches):
        store = CampaignStore(journal_dir=tmp_path / "wal")
        store.create("c")
        assert store.ingest("c", batches[0], seq=1) is not None
        assert store.ingest("c", batches[0], seq=1) is None
        assert store.get("c").applied_seq == 1
        # The journal holds exactly one batch record.
        scan = read_journal(journal_path(tmp_path / "wal", "c"))
        assert sum(1 for r in scan.records if r["kind"] == "batch") == 1
        store.close()

    def test_out_of_order_seq_is_rejected(self, tmp_path, batches):
        from repro.errors import ConfigurationError

        store = CampaignStore(journal_dir=tmp_path / "wal")
        store.create("c")
        store.ingest("c", batches[0], seq=1)
        with pytest.raises(ConfigurationError, match="out-of-order"):
            store.ingest("c", batches[1], seq=3)
        store.close()

    def test_http_duplicate_reply(self, tmp_path, batches):
        from repro.streaming.ingest import batch_to_json

        app = StreamingApp(CampaignStore(journal_dir=tmp_path / "wal"))
        app.handle("POST", "/campaigns", {"campaign_id": "c"})
        payload = batch_to_json(batches[0], include_truth=True)
        payload["seq"] = 1
        status, body = app.handle("POST", "/campaigns/c/claims", payload)
        assert status == 200 and "duplicate" not in body
        status, body = app.handle("POST", "/campaigns/c/claims", payload)
        assert status == 200 and body == {"duplicate": True, "seq": 1}
        app.store.close()


class TestRejectedBatchHygiene:
    """A batch the estimator refuses must never persist in the journal."""

    def test_invalid_batch_is_rejected_before_the_append(
        self, tmp_path, batches
    ):
        from repro.errors import DataFormatError
        from repro.streaming.ingest import ClaimBatch

        wal = tmp_path / "wal"
        store = CampaignStore(journal_dir=wal)
        store.create("c")
        store.ingest("c", batches[0], seq=1)
        poisoned = ClaimBatch(claims={("ghost-worker", "ghost-task"): "x"})
        with pytest.raises(DataFormatError):
            store.ingest("c", poisoned, seq=2)
        # The journal holds only the valid batch; the watermark did not
        # advance, so a corrected batch retries under the SAME seq and
        # appends exactly one record.
        scan = read_journal(journal_path(wal, "c"))
        assert [r["seq"] for r in scan.records if r["kind"] == "batch"] == [1]
        assert store.get("c").applied_seq == 1
        assert store.ingest("c", batches[1], seq=2) is not None
        store.close()

        # Every acknowledged batch survives the restart — the poisoned
        # ingest left no record to trip the replay.
        recovered = CampaignStore(journal_dir=wal)
        assert recovered.last_recovery[0]["status"] == "recovered"
        assert recovered.get("c").applied_seq == 2
        recovered.close()

    def test_refused_subrun_leaves_journal_and_state_unchanged(
        self, tmp_path, batches, monkeypatch
    ):
        # The estimator fails *after* validation passed: the sub-run of
        # seq 2 raises.  It computes before the append and publishes
        # after it, so nothing of the batch may reach the journal or the
        # live estimate, and a retry of the same seq must apply.
        wal = tmp_path / "wal"
        path = journal_path(wal, "c")
        store = CampaignStore(journal_dir=wal)
        store.create("c")
        store.ingest("c", batches[0], seq=1)
        campaign = store.get("c")
        journal_bytes = path.read_bytes()
        claims = campaign.online.index.arrays.n_claims
        n_batches = campaign.online.n_batches
        truths = store.truths("c")

        def refused(*_args):
            raise RuntimeError("sub-run exploded")

        with monkeypatch.context() as patch:
            patch.setattr(OnlineDATE, "_rerun", refused)
            with pytest.raises(RuntimeError, match="sub-run exploded"):
                store.ingest("c", batches[1], seq=2)
        assert path.read_bytes() == journal_bytes
        assert campaign.applied_seq == 1
        assert campaign.online.index.arrays.n_claims == claims
        assert campaign.online.n_batches == n_batches
        assert store.truths("c") == truths

        # The retried seq appends exactly one record and applies.
        assert store.ingest("c", batches[1], seq=2) is not None
        scan = read_journal(path)
        assert [r["seq"] for r in scan.records if r["kind"] == "batch"] == [1, 2]
        live = _state(store, "c")
        store.close()

        recovered = CampaignStore(journal_dir=wal)
        assert recovered.last_recovery[0]["status"] == "recovered"
        assert _state(recovered, "c") == live
        recovered.close()

    @pytest.mark.parametrize("cadence", [2.5, True, "2"])
    def test_non_integer_refresh_cadence_leaves_no_journal(
        self, tmp_path, cadence
    ):
        # A cadence the journal would read back differently (2.5 is
        # replayed as 2) must be refused before the create record.
        from repro.errors import ConfigurationError

        wal = tmp_path / "wal"
        store = CampaignStore(journal_dir=wal, refresh_every=cadence)
        with pytest.raises(ConfigurationError, match="refresh_every"):
            store.create("c")
        with pytest.raises(ConfigurationError, match="refresh_every"):
            CampaignStore(journal_dir=wal).create("d", refresh_every=cadence)
        assert list(wal.iterdir()) == []
        assert "c" not in store

    @pytest.mark.parametrize("seq", [2.5, True, "3", 3.0])
    def test_non_integer_seq_leaves_journal_and_watermark(
        self, tmp_path, batches, seq
    ):
        # Truncating 2.5 to 2 would dedup a new batch as a retry and
        # drop its claims; every non-int seq is refused instead.
        from repro.errors import ConfigurationError

        wal = tmp_path / "wal"
        path = journal_path(wal, "c")
        store = CampaignStore(journal_dir=wal)
        store.create("c")
        store.ingest("c", batches[0], seq=1)
        store.ingest("c", batches[1], seq=2)
        journal_bytes = path.read_bytes()
        with pytest.raises(ConfigurationError, match="seq"):
            store.ingest("c", batches[2], seq=seq)
        assert path.read_bytes() == journal_bytes
        assert store.get("c").applied_seq == 2
        assert store.ingest("c", batches[2], seq=3) is not None
        store.close()

    def test_http_invalid_batch_is_400_and_journal_stays_clean(
        self, tmp_path, batches
    ):
        from repro.streaming.ingest import batch_to_json

        wal = tmp_path / "wal"
        app = StreamingApp(CampaignStore(journal_dir=wal))
        app.handle("POST", "/campaigns", {"campaign_id": "c"})
        payload = batch_to_json(batches[0], include_truth=True)
        payload["seq"] = 1
        assert app.handle("POST", "/campaigns/c/claims", payload)[0] == 200
        bad = {
            "claims": [{"worker": "ghost", "task": "ghost", "value": "x"}],
            "seq": 2,
        }
        status, body = app.handle("POST", "/campaigns/c/claims", bad)
        assert status == 400 and "unknown" in body["error"]
        scan = read_journal(journal_path(wal, "c"))
        assert sum(1 for r in scan.records if r["kind"] == "batch") == 1
        app.store.close()


class TestDegradation:
    def test_journal_write_failure_is_503_and_not_applied(
        self, tmp_path, batches
    ):
        app = StreamingApp(CampaignStore(journal_dir=tmp_path / "wal"))
        app.handle("POST", "/campaigns", {"campaign_id": "c"})
        from repro.streaming.ingest import batch_to_json

        payload = batch_to_json(batches[0], include_truth=True)
        payload["seq"] = 1
        set_injector(FaultInjector.from_spec("journal.pre_append:ioerror"))
        status, body = app.handle("POST", "/campaigns/c/claims", payload)
        assert status == 503
        assert body["retry_after"] >= 1.0
        set_injector(FaultInjector())
        # Nothing was applied; the same seq retries cleanly.
        assert app.store.get("c").applied_seq == 0
        status, body = app.handle("POST", "/campaigns/c/claims", payload)
        assert status == 200 and "duplicate" not in body
        app.store.close()

    def test_store_level_write_failure_raises_journal_write_error(
        self, tmp_path, batches
    ):
        store = CampaignStore(journal_dir=tmp_path / "wal")
        store.create("c")
        set_injector(FaultInjector.from_spec("journal.pre_append:ioerror"))
        with pytest.raises(JournalWriteError):
            store.ingest("c", batches[0], seq=1)
        set_injector(FaultInjector())
        store.close()

    def test_corrupt_journal_fails_only_its_campaign(self, tmp_path, batches):
        wal = tmp_path / "wal"
        store = CampaignStore(journal_dir=wal)
        store.create("good")
        store.create("bad")
        store.ingest("good", batches[0], seq=1)
        store.ingest("bad", batches[0], seq=1)
        store.close()
        # Vandalize a NON-final record of one journal: corruption, not
        # a torn tail.
        path = journal_path(wal, "bad")
        lines = path.read_bytes().splitlines(keepends=True)
        lines[0] = b'{"len":0,"sha":"xx","record":{}}\n'
        path.write_bytes(b"".join(lines))

        recovered = CampaignStore(journal_dir=wal)
        by_id = {r["campaign_id"]: r for r in recovered.last_recovery}
        assert by_id["good"]["status"] == "recovered"
        assert by_id["bad"]["status"] == "corrupt"
        assert "good" in recovered
        assert "bad" not in recovered
        recovered.close()


class TestJournalLifecycle:
    def test_explicit_evict_deletes_the_journal(self, tmp_path, batches):
        wal = tmp_path / "wal"
        store = CampaignStore(journal_dir=wal)
        store.create("c")
        store.ingest("c", batches[0], seq=1)
        store.evict("c")
        assert not journal_path(wal, "c").exists()
        # A restart must NOT resurrect a deleted campaign.
        assert len(CampaignStore(journal_dir=wal)) == 0

    def test_lru_eviction_keeps_the_journal_for_resurrection(
        self, tmp_path, batches
    ):
        wal = tmp_path / "wal"
        store = CampaignStore(journal_dir=wal, max_campaigns=1)
        store.create("old")
        store.ingest("old", batches[0], seq=1)
        state = _state(store, "old")
        store.create("new")  # LRU-evicts "old" from memory only
        assert "old" not in store
        assert journal_path(wal, "old").exists()
        store.close()

        revived = CampaignStore(journal_dir=wal)
        assert _state(revived, "old") == state
        revived.close()

    def test_recreating_an_evicted_id_rotates_the_journal(
        self, tmp_path, batches
    ):
        wal = tmp_path / "wal"
        store = CampaignStore(journal_dir=wal, max_campaigns=1)
        store.create("c")
        store.ingest("c", batches[0], seq=1)
        store.create("other")  # evicts "c", journal file survives
        store.create("c")  # recreate: the stale journal must not leak in
        assert store.get("c").applied_seq == 0
        scan = read_journal(journal_path(wal, "c"))
        assert sum(1 for r in scan.records if r["kind"] == "batch") == 0
        store.close()

    def test_unjournaled_store_has_no_journal_side_effects(
        self, tmp_path, batches
    ):
        store = CampaignStore()
        store.create("c")
        update = store.ingest("c", batches[0])
        assert update is not None
        assert store.get("c").journal is None
        assert list(tmp_path.iterdir()) == []


class TestMetricLabelHygiene:
    def test_evicted_campaign_series_are_dropped(self, tmp_path, batches):
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            store = CampaignStore(journal_dir=tmp_path / "wal", max_campaigns=2)
            store.create("a")
            store.create("b")
            store.ingest("a", batches[0], seq=1)
            store.ingest("b", batches[0], seq=1)

            def campaigns_with_series():
                found = set()
                for family in registry.collect():
                    if "campaign" not in family.label_names:
                        continue
                    idx = family.label_names.index("campaign")
                    for key in family.series:
                        found.add(key[idx])
                return found

            assert campaigns_with_series() == {"a", "b"}
            store.evict("a")
            assert campaigns_with_series() == {"b"}
            store.create("d")
            store.create("e")  # LRU-evicts "b"
            assert "b" not in campaigns_with_series()
            store.close()
        finally:
            set_registry(previous)
