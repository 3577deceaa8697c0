"""Retrying JSON client for the streaming service.

:class:`StreamingClient` keeps one ``http.client`` connection alive
across requests and wraps it in the retry discipline the
durable server is designed for (DESIGN.md §15): per-request timeouts,
exponential backoff with deterministic jitter on transient failures
(connection refused/reset, timeouts, 5xx — honouring ``Retry-After``
on a 503), and **client-assigned batch sequence numbers** so a retried
ingest is exactly-once: the seq is chosen once per batch and reused
across every retry, the server deduplicates anything at or below its
applied watermark, and a client with no counter for a campaign (a
restarted process resuming an existing stream) bootstraps from the
server's durable ``applied_seq`` instead of guessing 1 — guessing
would have every batch dropped as a duplicate.  A
crashed-and-recovered server therefore sees
the same batch stream as an uninterrupted one, whether the original
attempt died before the journal append (replay applies the retry) or
after it (replay already applied the batch; the retry is a no-op).
A refresh or an auction has no such guard, so the client never re-sends
one after a failure that may have reached the server: only a 503 is
retried.
A request that finds its kept connection closed by the server (an idle
connection timed out) before any response byte arrives is re-sent once
on a fresh connection, without a backoff or a counted retry.

Everything is stdlib; the jitter source is a seeded ``random.Random``
so tests can pin the full retry schedule.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from urllib.parse import quote, urlsplit

from ..errors import ReproError
from ..obs.metrics import get_registry
from .ingest import ClaimBatch, batch_to_json

__all__ = ["ClientError", "ServerUnavailableError", "StreamingClient"]

#: Status codes worth retrying: the request may not have been processed
#: (503 explicitly promises it was not applied).
_RETRYABLE_STATUSES = frozenset({500, 502, 503, 504})


class ClientError(ReproError, RuntimeError):
    """A request failed with a non-retryable status (4xx)."""

    def __init__(self, method: str, url: str, status: int, detail: str):
        self.status = status
        self.detail = detail
        super().__init__(f"{method} {url} failed ({status}): {detail}")


class ServerUnavailableError(ReproError, RuntimeError):
    """Retries exhausted without reaching a healthy server."""

    def __init__(self, method: str, url: str, attempts: int, last_error: str):
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"{method} {url} failed after {attempts} attempts: {last_error}"
        )


class StreamingClient:
    """JSON client with timeouts, backoff + jitter, and exactly-once ingest.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of a running ``repro serve``.
    timeout:
        Per-request socket timeout in seconds.
    retries:
        Extra attempts after the first (so ``retries=5`` sends at most
        6 requests).
    backoff:
        First retry delay in seconds; doubles each retry up to
        ``max_backoff``.
    jitter:
        Each delay is multiplied by ``1 + uniform(0, jitter)`` — spreads
        thundering-herd retries without ever shortening the wait.
    seed:
        Seeds the jitter source (deterministic retry schedules in
        tests).
    sleep:
        Injection point for the delay function (tests pass a recorder).

    The connection lives until :meth:`close` (or a ``with`` block's end);
    threads take turns on it.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 10.0,
        retries: int = 5,
        backoff: float = 0.25,
        max_backoff: float = 5.0,
        jitter: float = 0.5,
        seed: int = 0,
        sleep=time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        self.jitter = float(jitter)
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._next_seq: dict[str, int] = {}
        url = urlsplit(self.base_url)
        self._prefix = url.path
        # Opens its socket on first use, and again after a close().
        connection = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        self._connection = connection(url.hostname, url.port, timeout=self.timeout)
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the kept connection; a later request opens a new one."""
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "StreamingClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport -------------------------------------------------------

    def request(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One JSON request with the full retry discipline.

        Transient failures (connection errors, timeouts, 5xx) are
        retried with exponential backoff + jitter; a 503's
        ``Retry-After`` header stretches the delay when it asks for
        longer.  Non-retryable statuses raise :class:`ClientError`
        immediately; exhausted retries raise
        :class:`ServerUnavailableError`.  A ``POST`` to a campaign's
        ``/refresh`` or ``/auction`` is not idempotent: a failure may
        have started the run on the server, so only a 503 (which
        promises nothing was applied) is retried, and any other
        transient failure raises :class:`ServerUnavailableError` at once.
        """
        url = self.base_url + path
        data = json.dumps(payload).encode() if payload is not None else None
        once = method == "POST" and path.startswith("/campaigns/") and (
            path.rsplit("/", 1)[-1] in ("refresh", "auction")
        )
        last_error = "no attempt made"
        attempts = 0
        for attempt in range(self.retries + 1):
            attempts = attempt + 1
            status, retry_after = None, None
            try:
                status, retry_header, body = self._exchange(method, self._prefix + path, data)
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
            else:
                if status < 400:
                    return json.loads(body) if body else {}
                detail = _error_detail(body)
                if status not in _RETRYABLE_STATUSES:
                    raise ClientError(method, url, status, detail)
                retry_after = _retry_after(retry_header)
                last_error = f"HTTP {status}: {detail}"
            if once and status != 503:
                break
            if attempt < self.retries:
                delay = self._delay(attempt, retry_after)
                get_registry().counter(
                    "streaming_client_retries_total",
                    "Requests retried by the streaming client.",
                    labels={"method": method},
                ).inc()
                self._sleep(delay)
        raise ServerUnavailableError(method, url, attempts, last_error)

    def _exchange(self, method: str, target: str, data: bytes | None):
        """One request on the kept connection: ``(status, Retry-After,
        body)``.  Any failure closes the connection."""
        with self._lock:
            connection, headers = self._connection, {"Content-Type": "application/json"}
            try:
                reused = connection.sock is not None
                try:
                    connection.request(method, target, body=data, headers=headers)
                    response = connection.getresponse()
                except (ConnectionResetError, BrokenPipeError):
                    if not reused:
                        raise
                    # No response byte came back: the server had closed
                    # the idle connection, so send once more on a new one.
                    connection.close()
                    connection.request(method, target, body=data, headers=headers)
                    response = connection.getresponse()
                return response.status, response.getheader("Retry-After"), response.read()
            except BaseException:
                connection.close()
                raise

    def _delay(self, attempt: int, retry_after: float | None) -> float:
        base = min(self.backoff * (2.0**attempt), self.max_backoff)
        delay = base * (1.0 + self._rng.uniform(0.0, self.jitter))
        if retry_after is not None:
            # The server knows when it expects to accept the request
            # again; never wait less than it asked for.
            delay = max(delay, retry_after)
        return delay

    # -- API surface -----------------------------------------------------

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def wait_ready(self, deadline: float = 30.0, poll: float = 0.1) -> dict:
        """Poll ``/healthz`` until the server answers; raises
        :class:`ServerUnavailableError` at deadline."""
        start = time.monotonic()
        last_error = "never polled"
        while time.monotonic() - start < deadline:
            try:
                return self.request("GET", "/healthz")
            except (ServerUnavailableError, ClientError) as exc:
                last_error = str(exc)
            self._sleep(poll)
        raise ServerUnavailableError(
            "GET", self.base_url + "/healthz", 0, f"not ready: {last_error}"
        )

    def create_campaign(self, campaign_id: str, **payload) -> dict:
        body = {"campaign_id": campaign_id, **payload}
        reply = self.request("POST", "/campaigns", body)
        self._next_seq[campaign_id] = 1
        return reply

    def ingest(
        self, campaign_id: str, batch: ClaimBatch, *, seq: int | None = None
    ) -> dict:
        """Send one claim batch exactly once.

        The sequence number is assigned *before* the first attempt and
        reused verbatim on every retry — the whole point: if the first
        attempt was journaled but its acknowledgement lost, the retry
        answers ``{"duplicate": true}`` instead of double-applying.

        A client that did not create the campaign itself (a restarted
        process ingesting into an existing campaign) first fetches the
        campaign summary and resumes from ``applied_seq + 1`` —
        defaulting to 1 would sit at or below the server's watermark,
        and every batch would be acknowledged as a duplicate and
        silently dropped.
        """
        if seq is None:
            seq = self._next_seq.get(campaign_id)
            if seq is None:
                summary = self.snapshot(campaign_id)
                seq = int(summary.get("applied_seq", 0)) + 1
        payload = batch_to_json(batch, include_truth=True)
        payload["seq"] = seq
        reply = self.request(
            "POST", f"/campaigns/{quote(campaign_id, safe='')}/claims", payload
        )
        self._next_seq[campaign_id] = seq + 1
        return reply

    def truths(self, campaign_id: str) -> dict:
        return self.request(
            "GET", f"/campaigns/{quote(campaign_id, safe='')}/truths"
        )

    def refresh(self, campaign_id: str) -> dict:
        return self.request(
            "POST", f"/campaigns/{quote(campaign_id, safe='')}/refresh"
        )

    def snapshot(self, campaign_id: str) -> dict:
        return self.request("GET", f"/campaigns/{quote(campaign_id, safe='')}")

    def delete_campaign(self, campaign_id: str) -> dict:
        return self.request(
            "DELETE", f"/campaigns/{quote(campaign_id, safe='')}"
        )


def _error_detail(body: bytes) -> str:
    try:
        return json.loads(body).get("error", "")
    except Exception:
        return ""


def _retry_after(value: str | None) -> float | None:
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None
