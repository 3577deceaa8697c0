"""Retrying client: backoff schedule, Retry-After, exactly-once seqs.

The transport is faked by monkeypatching ``http.client.HTTPConnection``
with scripted responses, so every retry decision the client makes is
pinned without a live server; the sleep function is injected to record
the schedule instead of waiting it out.
"""

from __future__ import annotations

import http.client
import http.server
import json
import socket
import threading
import time

import pytest

from repro.streaming import StreamingApp, make_server
from repro.streaming.client import (
    ClientError,
    ServerUnavailableError,
    StreamingClient,
)
from repro.streaming.ingest import ClaimBatch
from repro.types import Task, WorkerProfile


class _FakeResponse:
    def __init__(self, status: int, body: dict, headers: dict | None = None):
        self.status = status
        self._body = json.dumps(body).encode()
        self._headers = headers or {}

    def getheader(self, name: str, default=None):
        return self._headers.get(name, default)

    def read(self) -> bytes:
        return self._body


def _http_error(status: int, body: dict | None = None, headers: dict | None = None):
    return _FakeResponse(status, body or {}, headers)


class _Request:
    """One request as the fake connection saw it."""

    def __init__(self, method, target, body):
        self.method, self.data = method, body
        self.full_url = "http://127.0.0.1:1" + target

    def get_method(self) -> str:
        return self.method


class _Transport:
    """Scripted connections: each request pops the next canned outcome."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def __call__(self, host, port, timeout=None):
        transport = self

        class Connection:
            sock = None

            def request(self, method, target, body=None, headers=None):
                transport.requests.append((_Request(method, target, body), timeout))
                self.outcome = transport.outcomes.pop(0)
                if isinstance(self.outcome, Exception):
                    raise self.outcome
                self.sock = "open"

            def getresponse(self):
                if isinstance(self.outcome, _FakeResponse):
                    return self.outcome
                return _FakeResponse(200, self.outcome)

            def close(self):
                self.sock = None

        return Connection()


@pytest.fixture
def sleeps():
    return []


def _client(monkeypatch, transport, sleeps, **kwargs):
    monkeypatch.setattr(http.client, "HTTPConnection", transport)
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
            ConnectionRefusedError("refused"),
            ConnectionRefusedError("refused"),
            {"ok": True},
        ])
        client = _client(monkeypatch, transport, sleeps)
        assert client.request("GET", "/healthz") == {"ok": True}
        assert len(sleeps) == 2

    def test_backoff_doubles_and_caps(self, monkeypatch, sleeps):
        transport = _Transport([ConnectionRefusedError("x")] * 4)
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
        transport = _Transport([ConnectionRefusedError("x"), {"ok": True}])
        client = _client(
            monkeypatch, transport, sleeps, backoff=1.0, jitter=0.5, seed=3
        )
        client.request("GET", "/x")
        assert 1.0 <= sleeps[0] <= 1.5

    def test_reset_on_a_kept_connection_is_resent_at_once(self, monkeypatch, sleeps):
        # The server closed the idle connection: no backoff, no retry.
        transport = _Transport([{"ok": 1}, ConnectionResetError("idle close"), {"ok": 2}])
        client = _client(monkeypatch, transport, sleeps)
        client.request("GET", "/a")
        assert client.request("GET", "/b") == {"ok": 2}
        assert sleeps == []
        assert [req.full_url[-2:] for req, _ in transport.requests] == ["/a", "/b", "/b"]

    def test_reset_on_a_fresh_connection_backs_off(self, monkeypatch, sleeps):
        transport = _Transport([ConnectionResetError("reset"), {"ok": True}])
        client = _client(monkeypatch, transport, sleeps)
        assert client.request("GET", "/x") == {"ok": True}
        assert sleeps == [0.1]

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
            TimeoutError("ack lost"),  # ingest attempt 1
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
            ConnectionRefusedError("refused"),
            ConnectionRefusedError("refused"),
            {"status": "ok"},
        ])
        client = _client(monkeypatch, transport, sleeps, retries=0)
        health = client.wait_ready(deadline=30.0)
        assert health["status"] == "ok"

    def test_deadline_raises(self, monkeypatch, sleeps):
        transport = _Transport([ConnectionRefusedError("refused")] * 50)
        client = _client(monkeypatch, transport, sleeps, retries=0)
        import itertools

        clock = itertools.count(step=0.5)
        monkeypatch.setattr(
            "repro.streaming.client.time.monotonic", lambda: next(clock)
        )
        with pytest.raises(ServerUnavailableError, match="not ready"):
            client.wait_ready(deadline=3.0)


@pytest.fixture
def live_server():
    """Start a real server; yields ``(url, accepted)`` where ``accepted``
    lists every connection the listener accepted."""
    servers = []

    def start(**kwargs):
        server = make_server(StreamingApp(), port=0, **kwargs)
        accepted = []
        accept = server.get_request

        def counting_accept():
            connection = accept()
            accepted.append(connection[1])
            return connection

        server.get_request = counting_accept
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_address[1]}", accepted

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join()


class TestKeptConnection:
    """The transport against a real server over real sockets."""

    def test_requests_share_one_connection(self, live_server, sleeps):
        url, accepted = live_server()
        with StreamingClient(url, sleep=sleeps.append) as client:
            for _ in range(50):
                assert client.healthz()["status"] == "ok"
        assert len(accepted) == 1
        assert sleeps == []

    def test_threads_take_turns_on_the_connection(self, live_server, sleeps):
        url, accepted = live_server()
        client = StreamingClient(url, sleep=sleeps.append)
        client.create_campaign("c")
        replies = []

        def read_many():
            for _ in range(20):
                replies.append(client.snapshot("c")["campaign_id"])

        threads = [threading.Thread(target=read_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        client.close()
        assert replies == ["c"] * 80
        assert len(accepted) == 1 and sleeps == []

    def test_idle_close_is_resent_without_a_retry(self, live_server, sleeps):
        url, accepted = live_server(request_timeout=0.2)
        with StreamingClient(url, sleep=sleeps.append) as client:
            assert client.healthz()["status"] == "ok"
            time.sleep(0.6)  # the server drops the idle connection
            assert client.healthz()["status"] == "ok"
        assert len(accepted) == 2
        assert sleeps == []

    def test_dead_port_backs_off_then_gives_up(self, sleeps):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = StreamingClient(
            f"http://127.0.0.1:{port}", retries=2, backoff=0.1, jitter=0.0,
            sleep=sleeps.append,
        )
        with pytest.raises(ServerUnavailableError) as exc_info:
            client.healthz()
        assert exc_info.value.attempts == 3
        assert "ConnectionRefusedError" in exc_info.value.last_error
        assert sleeps == [0.1, 0.2]


@pytest.fixture
def scripted_server():
    """Start a real server that answers each request with the next step
    of a script and records every request it received.  A step is a
    status to answer with, or ``"stall"`` to hold the request past the
    client's timeout without answering.  Yields ``start(steps)``, which
    returns ``(url, received)``."""
    servers = []

    def start(steps):
        steps, received = list(steps), []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length") or 0))
                received.append(self.path)
                step = steps.pop(0) if steps else 200
                if step == "stall":
                    time.sleep(0.5)
                    self.close_connection = True
                    return
                body = json.dumps({"error": "scripted"} if step >= 400 else {"ok": True})
                self.send_response(step)
                self.send_header("Content-Length", str(len(body)))
                self.send_header("Retry-After", "0")
                self.end_headers()
                self.wfile.write(body.encode())

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_address[1]}", received

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join()


class TestNonIdempotentPosts:
    """A refresh or an auction that may have reached the server is never
    sent again: each one would start another run there."""

    @staticmethod
    def _client(url, sleeps):
        return StreamingClient(url, timeout=0.2, retries=3, backoff=0.01, sleep=sleeps.append)

    @pytest.mark.parametrize("route", ["refresh", "auction"])
    def test_timeout_raises_after_one_request(self, scripted_server, sleeps, route):
        url, received = scripted_server(["stall"])
        with self._client(url, sleeps) as client, pytest.raises(ServerUnavailableError) as exc_info:
            client.request("POST", f"/campaigns/c/{route}", {})
        assert received == [f"/campaigns/c/{route}"]
        assert exc_info.value.attempts == 1 and sleeps == []

    @pytest.mark.parametrize("status", [500, 502, 504])
    def test_non_503_server_error_raises_after_one_request(self, scripted_server, sleeps, status):
        url, received = scripted_server([status, 200])
        with self._client(url, sleeps) as client:
            with pytest.raises(ServerUnavailableError, match=f"HTTP {status}"):
                client.refresh("c")
        assert len(received) == 1 and sleeps == []

    def test_503_is_retried(self, scripted_server, sleeps):
        url, received = scripted_server([503, 200])
        with self._client(url, sleeps) as client:
            assert client.request("POST", "/campaigns/c/auction", {"cap": 0.8}) == {"ok": True}
        assert len(received) == 2 and len(sleeps) == 1

    def test_connection_error_raises_after_one_attempt(self, sleeps):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = self._client(f"http://127.0.0.1:{port}", sleeps)
        with pytest.raises(ServerUnavailableError, match="ConnectionRefusedError") as exc_info:
            client.refresh("c")
        assert exc_info.value.attempts == 1 and sleeps == []

    def test_an_ingest_is_still_retried_after_a_timeout(self, scripted_server, sleeps):
        # Its seq makes a re-sent batch a no-op on the server.
        url, received = scripted_server(["stall", 200])
        with self._client(url, sleeps) as client:
            assert client.ingest("c", _batch(1), seq=1) == {"ok": True}
        assert len(received) == 2 and len(sleeps) == 1
