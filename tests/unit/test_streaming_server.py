"""Unit tests for the campaign store and HTTP service
(repro.streaming.campaign / repro.streaming.server)."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import DateConfig
from repro.streaming import (
    CampaignStore,
    ClaimBatch,
    DuplicateCampaignError,
    StreamingApp,
    UnknownCampaignError,
    batch_to_json,
    make_server,
    replay_batches,
)
from repro.streaming.journal import journal_path
from repro.streaming.server import MAX_BODY_BYTES, config_from_spec

from tests.oracles import reference_auction


@pytest.fixture
def store():
    return CampaignStore()


@pytest.fixture
def app(store):
    return StreamingApp(store)


@pytest.fixture
def replay(qlf_small):
    return replay_batches(qlf_small, 3)


class TestCampaignStore:
    def test_create_get_evict(self, store):
        campaign = store.create("c1")
        assert store.get("c1") is campaign
        assert "c1" in store
        store.evict("c1")
        assert "c1" not in store

    def test_duplicate_create_rejected(self, store):
        store.create("c1")
        with pytest.raises(DuplicateCampaignError):
            store.create("c1")

    def test_unknown_campaign_raises(self, store):
        with pytest.raises(UnknownCampaignError):
            store.get("nope")
        with pytest.raises(UnknownCampaignError):
            store.evict("nope")
        with pytest.raises(UnknownCampaignError):
            store.ingest("nope", ClaimBatch())

    def test_ingest_and_estimate(self, store, replay):
        store.create("c1")
        for batch in replay:
            store.ingest("c1", batch)
        snapshot = store.estimate("c1")
        refreshed = store.estimate("c1", refresh=True)
        assert set(snapshot.truths) == set(refreshed.truths)
        assert refreshed.method == "DATE"

    def test_snapshot_is_json_safe(self, store, replay):
        store.create("c1")
        store.ingest("c1", replay[0])
        snapshot = store.snapshot("c1")
        json.dumps(snapshot)  # must not raise
        assert snapshot["campaign_id"] == "c1"
        assert snapshot["claims"] == replay[0].n_claims

    def test_lru_eviction(self):
        store = CampaignStore(max_campaigns=2)
        store.create("a")
        store.create("b")
        store.get("a")  # touch: "b" becomes least recently used
        store.create("c")
        assert "a" in store and "c" in store
        assert "b" not in store

    def test_auction_runs_on_refreshed_estimate(self, store, qlf_small):
        store.create("c1")
        store.ingest(
            "c1",
            ClaimBatch(
                claims=qlf_small.claims,
                tasks=qlf_small.tasks,
                workers=qlf_small.workers,
            ),
        )
        outcome = store.auction("c1", requirement_cap=0.7)
        assert outcome.auction.n_winners > 0
        cold_truths = store.estimate("c1", refresh=True).truths
        assert outcome.estimated_truths == cold_truths

    def test_per_campaign_config(self, store):
        campaign = store.create("c1", config=DateConfig(copy_prob_r=0.7))
        assert campaign.online.config.copy_prob_r == 0.7


class TestConfigFromSpec:
    def test_aliases(self):
        base = DateConfig()
        config = config_from_spec(
            {"r": 0.6, "alpha": 0.3, "epsilon": 0.4, "max_iterations": 7}, base
        )
        assert config.copy_prob_r == 0.6
        assert config.prior_alpha == 0.3
        assert config.initial_accuracy == 0.4
        assert config.max_iterations == 7

    def test_unknown_field_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            config_from_spec({"nonsense": 1}, DateConfig())

    def test_none_returns_base(self):
        base = DateConfig()
        assert config_from_spec(None, base) is base


class TestStreamingApp:
    def test_health(self, app):
        status, body = app.handle("GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["campaigns"] == 0

    def test_create_list_delete(self, app):
        status, body = app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        assert status == 201 and body["campaign_id"] == "c1"
        status, body = app.handle("GET", "/campaigns")
        assert status == 200 and len(body["campaigns"]) == 1
        status, body = app.handle("DELETE", "/campaigns/c1")
        assert status == 200
        assert len(app.store) == 0

    def test_create_requires_campaign_id(self, app):
        status, body = app.handle("POST", "/campaigns", {})
        assert status == 400

    @pytest.mark.parametrize("campaign_id", [True, 5, ["a", "b"], {"id": "a"}, None])
    def test_non_string_campaign_id_400_before_journal(self, tmp_path, campaign_id):
        # Never stringified into a campaign (true -> "True") and journaled.
        app = StreamingApp(CampaignStore(journal_dir=tmp_path))
        status, body = app.handle("POST", "/campaigns", {"campaign_id": campaign_id})
        assert status == 400 and "campaign_id" in body["error"]
        assert len(app.store) == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("algorithm", [True, 5, ["DATE"], {"name": "DATE"}])
    def test_non_string_algorithm_400_before_journal(self, tmp_path, algorithm):
        app = StreamingApp(CampaignStore(journal_dir=tmp_path))
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c1", "algorithm": algorithm}
        )
        assert status == 400 and "algorithm" in body["error"]
        assert len(app.store) == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["no", [], 1, None])
    def test_non_bool_discounted_posterior_400_before_journal(self, tmp_path, value):
        # "no" used to run the discounted posterior and [] the literal one.
        app = StreamingApp(CampaignStore(journal_dir=tmp_path))
        status, body = app.handle(
            "POST",
            "/campaigns",
            {"campaign_id": "c1", "config": {"discounted_posterior": value}},
        )
        assert status == 400 and "discounted_posterior" in body["error"]
        assert len(app.store) == 0
        assert list(tmp_path.iterdir()) == []

    def test_empty_store_not_discarded(self):
        # CampaignStore defines __len__, so a configured-but-empty
        # store is falsy; the app must still adopt it (`store or ...`
        # silently replaced it with a default store once).
        configured = CampaignStore(algorithm="FDS", refresh_every=3)
        app = StreamingApp(configured)
        assert app.store is configured
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c1"}
        )
        assert status == 201
        assert body["algorithm"] == "FDS"

    def test_per_campaign_algorithm(self, app):
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c1", "algorithm": "lca"}
        )
        assert status == 201 and body["algorithm"] == "LCA"
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c2", "algorithm": None}
        )
        assert status == 201 and body["algorithm"] == "DATE"
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "bad", "algorithm": "nope"}
        )
        assert status == 400

    def test_unknown_names_answer_plain_messages(self, app):
        # The unknown-name errors are KeyErrors, whose str() quotes the
        # message; the error body carries it unquoted.
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "h", "algorithm": "nope"}
        )
        assert status == 400
        assert body["error"].startswith("unknown truth-discovery algorithm 'nope' (known: ")
        status, body = app.handle("GET", "/campaigns/zz")
        assert (status, body) == (404, {"error": "unknown campaign 'zz'"})

    def test_duplicate_create_conflicts(self, app):
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        status, body = app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        assert status == 409

    def test_unknown_campaign_404(self, app):
        for method, path in [
            ("GET", "/campaigns/zz"),
            ("GET", "/campaigns/zz/truths"),
            ("POST", "/campaigns/zz/claims"),
            ("DELETE", "/campaigns/zz"),
        ]:
            status, _ = app.handle(method, path, {})
            assert status == 404, (method, path)

    def test_unknown_route_404(self, app):
        status, body = app.handle("GET", "/nope")
        assert status == 404
        status, body = app.handle("PATCH", "/campaigns")
        assert status == 404

    def test_full_campaign_flow(self, app, replay, qlf_small):
        app.handle(
            "POST", "/campaigns", {"campaign_id": "c1", "config": {"r": 0.4}}
        )
        for batch in replay:
            status, body = app.handle(
                "POST", "/campaigns/c1/claims",
                batch_to_json(batch, include_truth=True),
            )
            assert status == 200
            assert body["new_claims"] == batch.n_claims
        status, body = app.handle("GET", "/campaigns/c1/truths")
        assert status == 200 and json.loads(body)["truths"]
        status, workers = app.handle("GET", "/campaigns/c1/workers")
        assert status == 200
        assert set(workers["worker_accuracy"]) == {
            w.worker_id for w in qlf_small.workers
        }
        status, refreshed = app.handle("POST", "/campaigns/c1/refresh", {})
        assert status == 200 and refreshed["converged"] is not None
        status, auction = app.handle(
            "POST", "/campaigns/c1/auction", {"cap": 0.7}
        )
        assert status == 200 and auction["winners"]
        assert set(auction["payments"]) == set(auction["winners"])

    def test_auction_backend_selection(self, app, replay):
        """The served auction agrees with the scalar oracle."""
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        for batch in replay:
            app.handle(
                "POST", "/campaigns/c1/claims",
                batch_to_json(batch, include_truth=True),
            )
        status, default = app.handle(
            "POST", "/campaigns/c1/auction", {"cap": 0.7}
        )
        assert status == 200
        outcome = reference_auction(
            app.store.auction("c1", requirement_cap=0.7).instance
        )
        reference = {
            "winners": list(outcome.winner_ids),
            "payments": {w: outcome.payments[w] for w in outcome.winner_ids},
        }
        assert reference["winners"] == default["winners"]
        assert reference["payments"] == default["payments"]

    def test_unknown_auction_backend_400(self, app):
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        status, body = app.handle(
            "POST", "/campaigns/c1/auction", {"backend": "gpu"}
        )
        assert status == 400 and "error" in body

    def test_malformed_batch_400(self, app):
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        status, body = app.handle(
            "POST", "/campaigns/c1/claims", {"claims": [{"worker": "w"}]}
        )
        assert status == 400 and "error" in body

    def test_percent_encoded_ids_and_query_strings(self, app):
        app.handle("POST", "/campaigns", {"campaign_id": "my campaign"})
        status, body = app.handle("GET", "/campaigns/my%20campaign?verbose=1")
        assert status == 200 and body["campaign_id"] == "my campaign"
        status, _ = app.handle("GET", "/campaigns/my%20campaign/truths")
        assert status == 200

    def test_malformed_config_values_400(self, app):
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c9", "config": {"r": "abc"}}
        )
        assert status == 400 and "error" in body

    def test_malformed_scalars_400(self, app):
        # Non-numeric values inside well-shaped payloads must map to a
        # 400, not escape as ValueError/TypeError.
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        status, body = app.handle(
            "POST", "/campaigns/c1/auction", {"cap": "abc"}
        )
        assert status == 400 and "error" in body
        status, body = app.handle(
            "POST",
            "/campaigns",
            {
                "campaign_id": "c2",
                "tasks": [{"task_id": "t", "requirement": "not-a-number"}],
            },
        )
        assert status == 400 and "error" in body
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c3", "refresh_every": "four"}
        )
        assert status == 400 and "error" in body

    def test_concurrent_reads_during_ingest(self, app, qlf_small):
        # Reader routes must go through the campaign lock: unlocked
        # reads race the index/accuracy swap inside OnlineDATE.ingest.
        import threading

        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        batches = replay_batches(qlf_small, 8)
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    status, _ = app.handle("GET", "/campaigns/c1/workers")
                    assert status == 200
                    status, _ = app.handle("GET", "/campaigns/c1/truths")
                    assert status == 200
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for batch in batches:
                status, _ = app.handle(
                    "POST", "/campaigns/c1/claims", batch_to_json(batch)
                )
                assert status == 200
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors, errors[:1]

    def test_infeasible_auction_400(self, app):
        # A requirement no worker set can cover; without a cap the
        # InfeasibleCoverageError maps to a 400.
        app.handle(
            "POST",
            "/campaigns",
            {
                "campaign_id": "c1",
                "tasks": [{"task_id": "t", "requirement": 1000.0}],
                "workers": [{"worker_id": "w"}],
            },
        )
        app.handle(
            "POST",
            "/campaigns/c1/claims",
            {"claims": [{"worker": "w", "task": "t", "value": "x"}]},
        )
        status, body = app.handle("POST", "/campaigns/c1/auction", {})
        assert status == 400 and "error" in body

    def test_non_finite_cost_400_before_journal(self, tmp_path):
        # A NaN cost would become a NaN bid that wins the auction; it is
        # rejected at the ingest edge, before the create is journaled.
        app = StreamingApp(CampaignStore(journal_dir=tmp_path))
        status, body = app.handle(
            "POST",
            "/campaigns",
            {"campaign_id": "c1", "workers": [{"worker_id": "w", "cost": float("nan")}]},
        )
        assert status == 400 and "finite" in body["error"]
        assert list(tmp_path.iterdir()) == []
        assert app.handle("GET", "/campaigns", None)[1] == {"campaigns": []}

    @pytest.mark.parametrize(
        "batch",
        [
            {"claims": 5},
            {"claims": [{"worker": "w0", "task": "t0", "value": None}]},
            {"claims": [{"worker": "w0", "task": None, "value": "A"}]},
            {"workers": [{"worker_id": "w9", "sources": "w12"}]},
            {"tasks": [{"task_id": None}]},
            # float(True) is 1.0 and bool("false") is True: booleans
            # are not numbers, and only a JSON boolean is a flag.
            {"tasks": [{"task_id": "t9", "requirement": True}]},
            {"workers": [{"worker_id": "w9", "cost": True}]},
            {
                "workers": [
                    {
                        "worker_id": "w9",
                        "is_copier": "false",
                        "sources": ["w12"],
                        "copy_prob": 0.8,
                    }
                ]
            },
        ],
    )
    def test_malformed_wire_batch_400_before_journal(self, tmp_path, batch):
        # Wrong JSON types are a 400 at the decode edge: never a 500,
        # never a claim or id silently stringified into the journal.
        app = StreamingApp(CampaignStore(journal_dir=tmp_path))
        seed = {
            "tasks": [{"task_id": "t0"}],
            "workers": [{"worker_id": "w0"}, {"worker_id": "w1"}, {"worker_id": "w12"}],
        }
        assert app.handle("POST", "/campaigns", {"campaign_id": "c1", **seed})[0] == 201
        journal = journal_path(tmp_path, "c1")
        size = journal.stat().st_size

        status, body = app.handle("POST", "/campaigns/c1/claims", batch)
        assert status == 400 and "error" in body
        assert journal.stat().st_size == size
        assert app.handle("GET", "/campaigns/c1", None)[1]["claims"] == 0

        # The create route decodes its tasks and workers the same way.
        if "claims" not in batch:
            status, body = app.handle("POST", "/campaigns", {"campaign_id": "c2", **batch})
            assert status == 400 and "error" in body
            assert not journal_path(tmp_path, "c2").exists()

    @pytest.mark.parametrize("seq", [2.5, 3.5, True, "3.0x"])
    def test_non_integer_seq_400_before_journal(self, tmp_path, replay, seq):
        # Truncating 2.5 to 2 used to acknowledge a new batch as a
        # duplicate of seq 2 and silently drop its claims.
        app = StreamingApp(CampaignStore(journal_dir=tmp_path))
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        for number, batch in enumerate(replay[:2], start=1):
            status, _ = app.handle(
                "POST", "/campaigns/c1/claims", {**batch_to_json(batch), "seq": number}
            )
            assert status == 200
        journal = journal_path(tmp_path, "c1")
        size = journal.stat().st_size
        before = app.handle("GET", "/campaigns/c1", None)[1]

        status, body = app.handle(
            "POST", "/campaigns/c1/claims", {**batch_to_json(replay[2]), "seq": seq}
        )
        assert status == 400 and "seq" in body["error"]
        assert journal.stat().st_size == size
        assert app.handle("GET", "/campaigns/c1", None)[1] == before

        # The batch still goes through under its integral seq.
        status, body = app.handle(
            "POST", "/campaigns/c1/claims", {**batch_to_json(replay[2]), "seq": 3.0}
        )
        assert status == 200 and body["batch"] == 3

    @pytest.mark.parametrize("seq", [0, -3])
    def test_seq_below_one_400_before_journal(self, tmp_path, replay, seq):
        # Every seq below 1 sits at or below a fresh campaign's applied
        # watermark of 0, so it used to be acknowledged as a duplicate
        # and its claims silently dropped.
        app = StreamingApp(CampaignStore(journal_dir=tmp_path))
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        journal = journal_path(tmp_path, "c1")
        data = journal.read_bytes()

        status, body = app.handle(
            "POST", "/campaigns/c1/claims", {**batch_to_json(replay[0]), "seq": seq}
        )
        assert status == 400 and "seq" in body["error"]
        assert journal.read_bytes() == data
        assert app.handle("GET", "/campaigns/c1", None)[1]["applied_seq"] == 0
        assert json.loads(app.handle("GET", "/campaigns/c1/truths", None)[1])["truths"] == {}

        status, body = app.handle(
            "POST", "/campaigns/c1/claims", {**batch_to_json(replay[0]), "seq": 1}
        )
        assert status == 200 and body["batch"] == 1

    @pytest.mark.parametrize("refresh_every", [0.5, 2.5, True, False])
    def test_non_integer_refresh_every_400_before_journal(self, tmp_path, refresh_every):
        app = StreamingApp(CampaignStore(journal_dir=tmp_path))
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c1", "refresh_every": refresh_every}
        )
        assert status == 400 and "refresh_every" in body["error"]
        assert list(tmp_path.iterdir()) == []
        assert app.handle("GET", "/campaigns", None)[1] == {"campaigns": []}

    @pytest.mark.parametrize(
        ("payload", "error"),
        [
            ({"refresh_every": "3"}, "field 'refresh_every' must be an integer, got '3'"),
            (
                {"workers": [{"worker_id": "w", "cost": "2.5"}]},
                "field 'cost' must be a number, got '2.5'",
            ),
            (
                {"tasks": [{"task_id": "t", "requirement": "1e0"}]},
                "field 'requirement' must be a number, got '1e0'",
            ),
        ],
    )
    def test_quoted_numbers_400_before_journal(self, tmp_path, payload, error):
        app = StreamingApp(CampaignStore(journal_dir=tmp_path))
        status, body = app.handle("POST", "/campaigns", {"campaign_id": "c1", **payload})
        assert (status, body["error"]) == (400, error)
        assert list(tmp_path.iterdir()) == []

    def test_quoted_seq_and_cap_400(self, app, replay):
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        status, body = app.handle(
            "POST", "/campaigns/c1/claims", {**batch_to_json(replay[0]), "seq": "1"}
        )
        assert (status, body["error"]) == (400, "field 'seq' must be an integer, got '1'")
        app.handle("POST", "/campaigns/c1/claims", batch_to_json(replay[0]))
        status, body = app.handle("POST", "/campaigns/c1/auction", {"cap": "0.8"})
        assert (status, body["error"]) == (400, "field 'cap' must be a number, got '0.8'")

    @pytest.mark.parametrize(
        "config",
        [
            {"accuracy_clamp": [0.1]},
            {"accuracy_clamp": [0.1, 0.5, 0.9]},
            {"accuracy_clamp": "ab"},
            {"accuracy_clamp": [0.1, "x"]},
            {"max_iterations": 2.5},
            {"max_iterations": True},
        ],
    )
    def test_malformed_config_shapes_400_before_journal(self, tmp_path, config):
        app = StreamingApp(CampaignStore(journal_dir=tmp_path))
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c1", "config": config}
        )
        assert status == 400 and "error" in body
        assert list(tmp_path.iterdir()) == []
        assert app.handle("GET", "/campaigns", None)[1] == {"campaigns": []}

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"similarity": "abc"}, "similarity"),
            ({"similarity": "abc", "similarity_weight": 0.5}, "similarity"),
            ({"false_values": "zipf"}, "false_values"),
            ({"r": 0.5, "nonsense": 1}, "nonsense"),
        ],
    )
    def test_unjournalable_config_field_400_before_journal(
        self, tmp_path, config, field
    ):
        # Only fields the journal round-trips are accepted: a similarity
        # string used to be created, then recover as corrupt.
        app = StreamingApp(CampaignStore(journal_dir=tmp_path))
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c1", "config": config}
        )
        assert status == 400 and repr(field) in body["error"]
        assert list(tmp_path.iterdir()) == []
        assert app.handle("GET", "/campaigns", None)[1] == {"campaigns": []}

    def test_every_created_campaign_recovers(self, tmp_path, replay):
        app = StreamingApp(CampaignStore(journal_dir=tmp_path))
        specs = {
            "aliases": {"r": 0.6, "alpha": 0.3, "epsilon": 0.4},
            "fields": {
                "max_iterations": 7,
                "accuracy_clamp": [0.05, 0.95],
                "granularity": "task",
                "ordering": "independent_first",
                "discount_mode": "total",
                "discounted_posterior": False,
                "similarity_weight": 0.0,
            },
            "similarity": {"similarity": "abc"},
        }
        created = []
        for campaign_id, config in specs.items():
            status, _ = app.handle(
                "POST", "/campaigns", {"campaign_id": campaign_id, "config": config}
            )
            if status == 201:
                created.append(campaign_id)
                for batch in replay:
                    app.handle(
                        "POST", f"/campaigns/{campaign_id}/claims", batch_to_json(batch)
                    )
        assert created == ["aliases", "fields"]
        app.store.close()

        restarted = CampaignStore(journal_dir=tmp_path)
        assert {r["campaign_id"]: r["status"] for r in restarted.last_recovery} == {
            campaign_id: "recovered" for campaign_id in created
        }
        for campaign_id in created:
            assert restarted.truths(campaign_id) == app.store.truths(campaign_id)
            assert restarted.worker_accuracy(campaign_id) == app.store.worker_accuracy(
                campaign_id
            )
        restarted.close()

    @pytest.mark.parametrize("payload", [{"cap ": 0.7}, {"cap": 0.7, "backend": "vectorized"}])
    def test_unknown_auction_field_400(self, app, replay, payload):
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        for batch in replay:
            app.handle("POST", "/campaigns/c1/claims", batch_to_json(batch))
        status, body = app.handle("POST", "/campaigns/c1/auction", payload)
        (unknown,) = set(payload) - {"cap"}
        assert status == 400 and repr(unknown) in body["error"]


    @pytest.mark.parametrize("cap", [True, False])
    def test_boolean_auction_cap_400(self, app, replay, cap):
        # A JSON true used to price the auction with cap 1.0.
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        for batch in replay:
            app.handle("POST", "/campaigns/c1/claims", batch_to_json(batch))
        status, body = app.handle("POST", "/campaigns/c1/auction", {"cap": cap})
        assert status == 400
        assert body["error"] == f"field 'cap' must be a number, got {cap!r}"

    @pytest.mark.parametrize("cap", [2.0, 0.0, -1.0])
    def test_bad_auction_cap_400_before_refresh(
        self, tmp_path, replay, enabled_registry, cap
    ):
        # A cap outside (0, 1] is rejected before the auction's refresh,
        # which on a journaled store appends a record and runs DATE.
        app = StreamingApp(CampaignStore(journal_dir=tmp_path))
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        for batch in replay:
            app.handle("POST", "/campaigns/c1/claims", batch_to_json(batch))
        journal = journal_path(tmp_path, "c1")
        refreshes = enabled_registry.counter(
            "streaming_refreshes_total",
            labels={"campaign": "c1"},
        )
        size, count = journal.stat().st_size, refreshes.value

        status, body = app.handle("POST", "/campaigns/c1/auction", {"cap": cap})
        assert status == 400 and "(0, 1]" in body["error"]
        assert journal.stat().st_size == size
        assert refreshes.value == count

        # The same campaign still auctions, and that refresh is seen.
        status, _ = app.handle("POST", "/campaigns/c1/auction", {"cap": 0.7})
        assert status == 200
        assert journal.stat().st_size > size
        assert refreshes.value == count + 1


class TestLiveServer:
    @pytest.fixture
    def server(self, app):
        server = make_server(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def request(self, server, method, path, payload=None):
        port = server.server_address[1]
        data = json.dumps(payload).encode() if payload is not None else None
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_end_to_end_over_sockets(self, server, replay):
        status, body = self.request(server, "GET", "/health")
        assert status == 200 and body["status"] == "ok"
        status, body = self.request(
            server, "POST", "/campaigns", {"campaign_id": "live"}
        )
        assert status == 201
        status, body = self.request(
            server, "POST", "/campaigns/live/claims",
            batch_to_json(replay[0], include_truth=True),
        )
        assert status == 200 and body["new_claims"] == replay[0].n_claims
        status, body = self.request(server, "GET", "/campaigns/live/truths")
        assert status == 200 and body["truths"]
        status, body = self.request(server, "GET", "/campaigns/missing")
        assert status == 404
        status, body = self.request(server, "DELETE", "/campaigns/live")
        assert status == 200

    def test_a_published_state_encodes_its_truths_once(self, server, store, replay, monkeypatch):
        # Reads of one published state send the bytes its first read
        # encoded; the next publish encodes its own, once.
        self.request(server, "POST", "/campaigns", {"campaign_id": "c"})
        self.request(server, "POST", "/campaigns/c/claims", batch_to_json(replay[0]))
        encodes = []
        dumps = json.dumps

        def counting(obj, *args, **kwargs):
            if isinstance(obj, dict) and set(obj) == {"truths", "confidence"}:
                encodes.append(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)
        port = server.server_address[1]

        def read() -> bytes:
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/campaigns/c/truths") as response:
                return response.read()

        first = [read() for _ in range(5)]
        assert len(encodes) == 1
        assert first == [dumps(store.truths("c")).encode()] * 5
        self.request(server, "POST", "/campaigns/c/claims", batch_to_json(replay[1]))
        second = [read() for _ in range(3)]
        assert len(encodes) == 2
        assert second == [dumps(store.truths("c")).encode()] * 3
        assert second[0] != first[0]

    def test_invalid_json_body_400(self, server):
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/campaigns",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "body", [b"\xff", b"[" * 100_000], ids=["invalid-utf8", "too-deep"]
    )
    def test_undecodable_body_400_keeps_connection(self, server, body):
        # Neither body raises JSONDecodeError: invalid UTF-8 raises
        # UnicodeDecodeError, deep nesting RecursionError.
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=5
        )
        try:
            connection.request("POST", "/campaigns", body=body)
            response = connection.getresponse()
            assert response.status == 400
            assert "invalid JSON body" in json.loads(response.read())["error"]
            connection.request("GET", "/health")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_keep_alive_responses_are_not_held_back(self, server):
        # Headers and body leave in two sends; with Nagle on, the body
        # waited for the client's delayed ACK of the headers (~40 ms).
        connection = http.client.HTTPConnection("127.0.0.1", server.server_address[1])
        latencies = []
        try:
            for _ in range(30):
                start = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200 and json.loads(response.read())
                latencies.append(time.perf_counter() - start)
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.005

    @staticmethod
    def raw_exchange(server, content_length: bytes) -> bytes:
        """Send one request with a raw Content-Length header; read to EOF."""
        port = server.server_address[1]
        request = (
            b"POST /campaigns HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + content_length + b"\r\n\r\n{}"
        )
        chunks = []
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(request)
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks)

    @pytest.mark.parametrize("content_length", [b"twelve", b"-5"])
    def test_bad_content_length_400(self, server, content_length):
        reply = self.raw_exchange(server, content_length)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"connection: close" in head.lower()
        assert "Content-Length" in json.loads(body)["error"]
        # The handler survived: the next request is served normally.
        status, body = self.request(server, "GET", "/health")
        assert status == 200 and body["status"] == "ok"

    @pytest.fixture
    def journaled_server(self, tmp_path):
        server = make_server(StreamingApp(CampaignStore(journal_dir=tmp_path)), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def test_oversized_body_413_unread(self, journaled_server, tmp_path, replay):
        # 10**12 declared bytes, only "{}" sent: the server answers
        # without waiting for (or reading) the body, and closes.
        reply = self.raw_exchange(journaled_server, str(10**12).encode())
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"connection: close" in head.lower()
        assert str(MAX_BODY_BYTES) in json.loads(body)["error"]
        assert list(tmp_path.iterdir()) == []
        status, body = self.request(journaled_server, "GET", "/campaigns")
        assert status == 200 and body == {"campaigns": []}
        # A normal upload on a new connection still goes through.
        status, _ = self.request(
            journaled_server, "POST", "/campaigns", {"campaign_id": "c1"}
        )
        assert status == 201
        status, body = self.request(
            journaled_server, "POST", "/campaigns/c1/claims",
            batch_to_json(replay[0], include_truth=True),
        )
        assert status == 200 and body["new_claims"] == replay[0].n_claims

    def test_body_at_the_cap_is_read(self, server):
        # The cap is inclusive: a body of exactly MAX_BODY_BYTES is read
        # (and here rejected as JSON, not as too large).
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/campaigns",
            data=b" " * (MAX_BODY_BYTES - 1) + b"x",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400


class TestGracefulShutdown:
    """A kept-alive connection idle between requests does not hold a
    shutdown; a request already in flight is still answered."""

    @staticmethod
    def partial_create(port: int) -> tuple[socket.socket, bytes]:
        """A create request sent but for its last body bytes."""
        body = json.dumps({"campaign_id": "late"}).encode()
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.sendall(
            b"POST /campaigns HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body[:5]
        )
        return sock, body[5:]

    @staticmethod
    def finish(sock: socket.socket, rest: bytes) -> bytes:
        sock.sendall(rest)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
        sock.close()
        return b"".join(chunks)

    def test_server_close_skips_idle_and_drains_in_flight(self, app):
        server = make_server(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        idle = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        idle.request("GET", "/healthz")
        assert idle.getresponse().read()
        busy, rest = self.partial_create(port)
        time.sleep(0.3)  # the handler is reading the body
        server.shutdown()
        closing = threading.Thread(target=server.server_close)
        start = time.monotonic()
        closing.start()
        time.sleep(0.3)
        reply = self.finish(busy, rest)
        closing.join(timeout=10)
        assert not closing.is_alive()
        assert time.monotonic() - start < 5
        assert reply.startswith(b"HTTP/1.1 201 ")
        assert app.store.list_campaigns()[0]["campaign_id"] == "late"
        idle.close()

    def test_sigterm_exits_promptly_with_an_idle_connection(self):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            match = None
            while match is None:
                line = process.stdout.readline()
                assert line, "server exited before announcing its port"
                match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            port = int(match.group(1))
            idle = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            idle.request("GET", "/healthz")
            assert idle.getresponse().read()
            busy, rest = self.partial_create(port)
            time.sleep(0.3)  # the handler is reading the body
            start = time.monotonic()
            process.send_signal(signal.SIGTERM)
            time.sleep(0.3)
            reply = self.finish(busy, rest)
            assert process.wait(timeout=10) == 0
            assert time.monotonic() - start < 5
            assert reply.startswith(b"HTTP/1.1 201 ")
            idle.close()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()


@pytest.fixture
def enabled_registry():
    """Swap in a fresh enabled registry for the duration of one test."""
    from repro.obs import MetricsRegistry, set_registry

    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


class TestObservabilityRoutes:
    def test_healthz(self, app):
        status, body = app.handle("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0.0
        assert body["campaigns"] == 0
        assert isinstance(body["metrics_enabled"], bool)

    def test_metrics_route_returns_exposition_text(self, app, enabled_registry):
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        status, body = app.handle("GET", "/metrics")
        assert status == 200
        assert isinstance(body, str)
        assert "# TYPE http_requests_total counter" in body
        assert "# TYPE streaming_campaigns_live gauge" in body

    def test_metrics_on_disabled_registry_is_empty_text(self, app):
        from repro.obs import MetricsRegistry, set_registry

        previous = set_registry(MetricsRegistry(enabled=False))
        try:
            status, body = app.handle("GET", "/metrics")
        finally:
            set_registry(previous)
        assert status == 200
        assert body == ""

    def test_request_metrics_use_route_templates(self, app, enabled_registry):
        app.handle("POST", "/campaigns", {"campaign_id": "one two"})
        app.handle("GET", "/campaigns/one%20two")
        app.handle("GET", "/campaigns/one%20two/truths")
        app.handle("GET", "/campaigns/missing/truths")
        text = app.handle("GET", "/metrics")[1]
        # Campaign ids collapse into one {id} template per route, so the
        # label space stays bounded no matter how many campaigns exist.
        assert 'route="/campaigns/{id}"' in text
        assert 'route="/campaigns/{id}/truths"' in text
        assert "one two" not in text
        assert (
            'http_requests_total{method="GET",'
            'route="/campaigns/{id}/truths",status="200"} 1' in text
        )
        assert (
            'http_requests_total{method="GET",'
            'route="/campaigns/{id}/truths",status="404"} 1' in text
        )

    def test_ingest_records_per_campaign_counters(
        self, app, replay, enabled_registry
    ):
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        for batch in replay:
            app.handle(
                "POST", "/campaigns/c1/claims",
                batch_to_json(batch, include_truth=True),
            )
        claims = enabled_registry.counter(
            "streaming_claims_ingested_total", labels={"campaign": "c1"}
        )
        assert claims.value == sum(batch.n_claims for batch in replay)
        batches = enabled_registry.counter(
            "streaming_ingest_batches_total", labels={"campaign": "c1"}
        )
        assert batches.value == len(replay)

    def test_live_metrics_scrape_content_type(self, enabled_registry, app):
        server = make_server(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics"
            ) as response:
                assert response.status == 200
                content_type = response.headers["Content-Type"]
                body = response.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "http_requests_total" in body or body == ""
