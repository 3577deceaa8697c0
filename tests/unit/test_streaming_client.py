"""Retrying client: backoff schedule, Retry-After, exactly-once seqs.

The transport is faked by monkeypatching ``urllib.request.urlopen``
with scripted responses, so every retry decision the client makes is
pinned without a live server; the sleep function is injected to record
the schedule instead of waiting it out.
"""

from __future__ import annotations

import io
import json
import urllib.error
import urllib.request

import pytest

from repro.streaming.client import (
    ClientError,
    ServerUnavailableError,
    StreamingClient,
)
from repro.streaming.ingest import ClaimBatch
from repro.types import Task, WorkerProfile


class _FakeResponse:
    def __init__(self, body: dict):
        self._body = json.dumps(body).encode()

    def read(self) -> bytes:
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _http_error(status: int, body: dict | None = None, headers: dict | None = None):
    import email.message

    msg = email.message.Message()
    for name, value in (headers or {}).items():
        msg[name] = value
    return urllib.error.HTTPError(
        "http://x", status, "err", msg,
        io.BytesIO(json.dumps(body or {}).encode()),
    )


class _Transport:
    """Scripted urlopen: pops the next canned outcome per call."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def __call__(self, request, timeout=None):
        self.requests.append((request, timeout))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return _FakeResponse(outcome)


@pytest.fixture
def sleeps():
    return []


def _client(monkeypatch, transport, sleeps, **kwargs):
    monkeypatch.setattr(urllib.request, "urlopen", transport)
    kwargs.setdefault("retries", 3)
    kwargs.setdefault("backoff", 0.1)
    kwargs.setdefault("jitter", 0.0)
    return StreamingClient(
        "http://127.0.0.1:1/", sleep=sleeps.append, **kwargs
    )


class TestRetrying:
    def test_connection_errors_are_retried_until_success(
        self, monkeypatch, sleeps
    ):
        transport = _Transport([
            urllib.error.URLError("refused"),
            urllib.error.URLError("refused"),
            {"ok": True},
        ])
        client = _client(monkeypatch, transport, sleeps)
        assert client.request("GET", "/healthz") == {"ok": True}
        assert len(sleeps) == 2

    def test_backoff_doubles_and_caps(self, monkeypatch, sleeps):
        transport = _Transport([urllib.error.URLError("x")] * 4)
        client = _client(
            monkeypatch, transport, sleeps, retries=3, backoff=1.0, max_backoff=2.5
        )
        with pytest.raises(ServerUnavailableError):
            client.request("GET", "/healthz")
        assert sleeps == [1.0, 2.0, 2.5]

    def test_503_honors_a_longer_retry_after(self, monkeypatch, sleeps):
        transport = _Transport([
            _http_error(503, {"error": "recovering"}, {"Retry-After": "3"}),
            {"ok": True},
        ])
        client = _client(monkeypatch, transport, sleeps)
        assert client.request("GET", "/x") == {"ok": True}
        assert sleeps == [3.0]

    def test_4xx_is_not_retried(self, monkeypatch, sleeps):
        transport = _Transport([_http_error(404, {"error": "unknown campaign"})])
        client = _client(monkeypatch, transport, sleeps)
        with pytest.raises(ClientError) as exc_info:
            client.request("GET", "/campaigns/nope")
        assert exc_info.value.status == 404
        assert "unknown campaign" in str(exc_info.value)
        assert sleeps == []

    def test_exhausted_retries_raise_with_last_error(self, monkeypatch, sleeps):
        transport = _Transport([_http_error(503, {"error": "disk"})] * 4)
        client = _client(monkeypatch, transport, sleeps)
        with pytest.raises(ServerUnavailableError, match="HTTP 503"):
            client.request("POST", "/campaigns/c/claims", {})
        assert len(transport.requests) == 4  # 1 try + 3 retries

    def test_jitter_stretches_but_never_shortens(self, monkeypatch, sleeps):
        transport = _Transport([urllib.error.URLError("x"), {"ok": True}])
        client = _client(
            monkeypatch, transport, sleeps, backoff=1.0, jitter=0.5, seed=3
        )
        client.request("GET", "/x")
        assert 1.0 <= sleeps[0] <= 1.5

    def test_timeout_is_passed_to_the_transport(self, monkeypatch, sleeps):
        transport = _Transport([{"ok": True}])
        client = _client(monkeypatch, transport, sleeps, timeout=7.5)
        client.request("GET", "/x")
        assert transport.requests[0][1] == 7.5


def _batch(i):
    return ClaimBatch(
        claims={(f"w{i}", f"t{i}"): "a"},
        tasks=(Task(task_id=f"t{i}", domain=("a", "b")),),
        workers=(WorkerProfile(worker_id=f"w{i}"),),
    )


class TestExactlyOnceSequencing:
    def test_seq_is_assigned_before_first_attempt_and_reused(
        self, monkeypatch, sleeps
    ):
        # First attempt dies *after* the server journaled it (ack lost);
        # the retry must carry the SAME seq so the server deduplicates.
        transport = _Transport([
            {"batch": 1},                       # create
            urllib.error.URLError("ack lost"),  # ingest attempt 1
            {"duplicate": True, "seq": 1},      # ingest attempt 2 (retry)
        ])
        client = _client(monkeypatch, transport, sleeps)
        client.create_campaign("c")
        reply = client.ingest("c", _batch(0))
        assert reply == {"duplicate": True, "seq": 1}
        sent = [
            json.loads(req.data)
            for req, _ in transport.requests[1:]
        ]
        assert [body["seq"] for body in sent] == [1, 1]

    def test_seq_advances_per_acknowledged_batch(self, monkeypatch, sleeps):
        transport = _Transport([{"batch": 1}, {"batch": 1}, {"batch": 2}])
        client = _client(monkeypatch, transport, sleeps)
        client.create_campaign("c")
        client.ingest("c", _batch(0))
        client.ingest("c", _batch(1))
        sent = [json.loads(req.data) for req, _ in transport.requests[1:]]
        assert [body["seq"] for body in sent] == [1, 2]

    def test_seqs_are_tracked_per_campaign(self, monkeypatch, sleeps):
        transport = _Transport([{}, {}, {}, {}])
        client = _client(monkeypatch, transport, sleeps)
        client.create_campaign("a")
        client.create_campaign("b")
        client.ingest("a", _batch(0))
        client.ingest("b", _batch(1))
        sent = [json.loads(req.data) for req, _ in transport.requests[2:]]
        assert [body["seq"] for body in sent] == [1, 1]

    def test_restarted_client_resumes_from_server_watermark(
        self, monkeypatch, sleeps
    ):
        # No create_campaign call: this client has no counter for "c"
        # (a restarted process resuming an existing stream).  It must
        # fetch the campaign summary and continue at applied_seq + 1 —
        # defaulting to 1 would be acknowledged as a duplicate and
        # silently dropped.
        transport = _Transport([
            {"campaign_id": "c", "applied_seq": 4},  # GET /campaigns/c
            {"batch": 5},                            # ingest seq 5
            {"batch": 6},                            # ingest seq 6
        ])
        client = _client(monkeypatch, transport, sleeps)
        client.ingest("c", _batch(0))
        client.ingest("c", _batch(1))
        first = transport.requests[0][0]
        assert first.get_method() == "GET"
        assert first.full_url.endswith("/campaigns/c")
        sent = [json.loads(req.data) for req, _ in transport.requests[1:]]
        assert [body["seq"] for body in sent] == [5, 6]

    def test_campaign_ids_are_percent_encoded(self, monkeypatch, sleeps):
        transport = _Transport([{}])
        client = _client(monkeypatch, transport, sleeps)
        client.ingest("a/b c", _batch(0), seq=1)
        url = transport.requests[0][0].full_url
        assert "/campaigns/a%2Fb%20c/claims" in url


class TestWaitReady:
    def test_waits_through_recovering_state(self, monkeypatch, sleeps):
        # A restarting server replays its journals before it binds, so
        # recovery looks like refused connections until /healthz answers.
        transport = _Transport([
            urllib.error.URLError("refused"),
            urllib.error.URLError("refused"),
            {"status": "ok"},
        ])
        client = _client(monkeypatch, transport, sleeps, retries=0)
        health = client.wait_ready(deadline=30.0)
        assert health["status"] == "ok"

    def test_deadline_raises(self, monkeypatch, sleeps):
        transport = _Transport([urllib.error.URLError("refused")] * 50)
        client = _client(monkeypatch, transport, sleeps, retries=0)
        import itertools

        clock = itertools.count(step=0.5)
        monkeypatch.setattr(
            "repro.streaming.client.time.monotonic", lambda: next(clock)
        )
        with pytest.raises(ServerUnavailableError, match="not ready"):
            client.wait_ready(deadline=3.0)
