"""Stdlib HTTP/JSON front end for the streaming truth-discovery service.

``repro serve`` binds :class:`StreamingApp` — a transport-free request
dispatcher over a :class:`~repro.streaming.campaign.CampaignStore` — to
a ``ThreadingHTTPServer``.  Keeping the dispatcher free of socket code
means the whole API surface is unit-testable as plain function calls,
and the handler class only parses/serializes JSON.

Routes (all bodies JSON unless noted):

- ``GET  /health`` — liveness + campaign count;
- ``GET  /healthz`` — liveness + uptime + campaign count (Kubernetes-
  style probe; the store replays every journal before the listener
  binds, so a server that answers has finished recovery);
- ``GET  /metrics`` — Prometheus text exposition of the process
  metrics registry (plain text, not JSON);
- ``GET  /campaigns`` — list campaign summaries;
- ``POST /campaigns`` — create: ``{"campaign_id": ..., "tasks": [...],
  "workers": [...], "config": {...}, "refresh_every": N}``;
- ``GET  /campaigns/<id>`` — summary + current estimates;
- ``DELETE /campaigns/<id>`` — evict (a durable delete: the campaign's
  journal goes with it);
- ``POST /campaigns/<id>/claims`` — ingest a claim batch
  (``{"tasks": [...], "workers": [...], "claims": [{"worker": ...,
  "task": ..., "value": ...}], "seq": N}``; the optional ``seq`` (>= 1)
  is the client-assigned batch sequence number that makes retries
  exactly-once — a replayed duplicate answers 200 with
  ``"duplicate": true``);
- ``GET  /campaigns/<id>/truths`` — current truths + confidence;
- ``GET  /campaigns/<id>/workers`` — worker reputations;
- ``POST /campaigns/<id>/refresh`` — force a full re-estimation;
- ``POST /campaigns/<id>/auction`` — run IMC2 (``{"cap": 0.8}``; the
  optional ``cap`` is the only accepted key).

Reads (``GET`` of a campaign, its truths or its workers) answer from
one published estimate without a lock, so none waits for a write.  A
truths read sends the body its estimate encoded on the first read.

Errors map onto status codes: malformed input (a ``seq`` below 1
included) and infeasible auctions are 400, unknown campaigns/routes 404, duplicate campaigns 409, bodies
over :data:`MAX_BODY_BYTES` 413, and
degradation is 503 with a ``Retry-After`` header — the journal disk
rejected a write (the batch was NOT applied; retrying the same ``seq``
is safe).
"""

from __future__ import annotations

import contextlib
import json
import signal
import socket
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote

from ..core.config import DateConfig
from ..errors import ReproError
from ..obs.exposition import CONTENT_TYPE, render_prometheus
from ..obs.logging import get_logger
from ..obs.metrics import get_registry
from .campaign import (
    CampaignStore,
    DuplicateCampaignError,
    UnknownCampaignError,
)
from .ingest import batch_from_json, coerce_integer, coerce_number
from .journal import _CONFIG_FIELDS, JournalWriteError

__all__ = ["MAX_BODY_BYTES", "StreamingApp", "config_from_spec", "make_server", "serve"]

#: Short aliases accepted in JSON config objects next to the full
#: DateConfig field names (matching the CLI flags).
_CONFIG_ALIASES = {
    "r": "copy_prob_r",
    "alpha": "prior_alpha",
    "epsilon": "initial_accuracy",
}

#: Largest request body read, in bytes (DESIGN.md §8).  A whole 10x
#: campaign sent as one claim batch is about 6.2 MB of JSON; a larger
#: declared ``Content-Length`` gets 413 before any of the body is read.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Per-connection socket timeout: a stalled peer (or a half-open
#: connection left by a killed client) releases its handler thread
#: instead of pinning it forever.
DEFAULT_REQUEST_TIMEOUT = 30.0


def config_from_spec(spec: dict | None, base: DateConfig) -> DateConfig:
    """Evolve ``base`` with the JSON config object ``spec``.

    Only the fields the journal round-trips (and their aliases) are
    accepted, so every campaign the service creates can be replayed.
    """
    if not spec:
        return base
    if not isinstance(spec, dict):
        raise ReproError(f"config must be a JSON object, got {spec!r}")
    changes = {}
    for key, value in spec.items():
        field_name = _CONFIG_ALIASES.get(key, key)
        if field_name not in _CONFIG_FIELDS:
            raise ReproError(
                f"unsupported config field {key!r}; expected one of "
                f"{sorted((*_CONFIG_FIELDS, *_CONFIG_ALIASES))}"
            )
        if field_name == "accuracy_clamp" and isinstance(value, list):
            value = tuple(value)
        changes[field_name] = value
    try:
        return base.evolve(**changes)
    except TypeError as exc:
        # Non-numeric values land here.
        raise ReproError(f"invalid config: {exc}") from exc


def _route_template(parts: list[str]) -> str:
    """Low-cardinality route label: campaign ids collapse to ``{id}``."""
    if len(parts) >= 2 and parts[0] == "campaigns":
        return "/".join(["/campaigns/{id}"] + parts[2:])
    return "/" + "/".join(parts)


class StreamingApp:
    """Transport-free dispatcher: ``(method, path, payload) -> (status, body)``."""

    def __init__(self, store: CampaignStore | None = None):
        # `store or ...` would discard a configured-but-empty store:
        # CampaignStore defines __len__, so a fresh store is falsy.
        self.store = store if store is not None else CampaignStore()
        self.started_at = time.time()

    def handle(self, method: str, path: str, payload: dict | None = None):
        """Dispatch one request; returns ``(status_code, body)``.

        The path is split on ``/`` with the query string dropped and
        each segment percent-decoded, so campaign ids round-trip
        through clients that quote them.  The body is a JSON-safe dict
        for every route except ``/metrics``, whose body is the
        exposition text (``str``), and a campaign's ``truths``, whose
        body is its published state's encoded JSON (``bytes``).
        Request latency and counts land in the registry per (method,
        route template, status).

        A 503 body carries ``retry_after`` (seconds); the HTTP handler
        surfaces it as a ``Retry-After`` header.
        """
        path = path.partition("?")[0]
        parts = [unquote(part) for part in path.split("/") if part]
        registry = get_registry()
        start = time.perf_counter() if registry.enabled else 0.0
        if payload is not None and not isinstance(payload, dict):
            status, body = 400, {"error": "request body must be a JSON object"}
        else:
            try:
                status, body = self._route(method.upper(), parts, payload or {})
            except UnknownCampaignError as exc:
                status, body = 404, {"error": str(exc)}
            except DuplicateCampaignError as exc:
                status, body = 409, {"error": str(exc)}
            except JournalWriteError as exc:
                # The batch was NOT applied (append rolls back or the
                # journal refuses): the client may retry the same seq.
                status, body = 503, {"error": str(exc), "retry_after": 1.0}
            except ReproError as exc:
                status, body = 400, {"error": str(exc)}
        if registry.enabled:
            labels = {
                "method": method.upper(),
                "route": _route_template(parts),
                "status": str(status),
            }
            registry.counter(
                "http_requests_total", "HTTP requests served.", labels=labels
            ).inc()
            registry.timer(
                "http_request_seconds",
                "Request latency by method, route template, and status.",
                labels=labels,
            ).observe(time.perf_counter() - start)
        return status, body

    def _route(self, method: str, parts: list[str], payload: dict):
        if parts == ["metrics"] and method == "GET":
            return 200, render_prometheus(get_registry())
        if parts == ["healthz"] and method == "GET":
            return 200, {
                "status": "ok",
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "campaigns": len(self.store),
                "journaled": self.store.journal_dir is not None,
                "metrics_enabled": get_registry().enabled,
            }
        if parts in ([], ["health"]) and method == "GET":
            from .. import __version__  # deferred: repro/__init__ imports us

            return 200, {
                "status": "ok",
                "version": __version__,
                "campaigns": len(self.store),
            }
        if parts == ["campaigns"]:
            if method == "GET":
                return 200, {"campaigns": self.store.list_campaigns()}
            if method == "POST":
                return self._create(payload)
        if len(parts) >= 2 and parts[0] == "campaigns":
            campaign_id = parts[1]
            rest = parts[2:]
            if not rest:
                if method == "GET":
                    return 200, self.store.snapshot(campaign_id)
                if method == "DELETE":
                    self.store.evict(campaign_id)
                    return 200, {"evicted": campaign_id}
            if rest == ["claims"] and method == "POST":
                return self._ingest(campaign_id, payload)
            if rest == ["truths"] and method == "GET":
                return 200, self.store.truths_body(campaign_id)
            if rest == ["workers"] and method == "GET":
                return 200, {
                    "worker_accuracy": self.store.worker_accuracy(campaign_id)
                }
            if rest == ["refresh"] and method == "POST":
                result = self.store.estimate(campaign_id, refresh=True)
                return 200, {
                    "truths": result.truths,
                    "iterations": result.iterations,
                    "converged": result.converged,
                }
            if rest == ["auction"] and method == "POST":
                return self._auction(campaign_id, payload)
        return 404, {"error": f"no route for {method} /{'/'.join(parts)}"}

    def _create(self, payload: dict):
        campaign_id = payload.get("campaign_id")
        if not isinstance(campaign_id, str) or not campaign_id:
            return 400, {"error": "create payload must carry a non-empty string campaign_id"}
        algorithm = payload.get("algorithm")
        if algorithm is not None and not isinstance(algorithm, str):
            return 400, {"error": f"algorithm must be a string, got {algorithm!r}"}
        refresh_every = payload.get("refresh_every")
        if refresh_every is not None:
            refresh_every = coerce_integer(payload, "refresh_every", 0)
        seed = batch_from_json({k: payload[k] for k in ("tasks", "workers") if k in payload})
        campaign = self.store.create(
            campaign_id,
            tasks=seed.tasks,
            workers=seed.workers,
            config=config_from_spec(
                payload.get("config"), self.store.default_config
            ),
            refresh_every=refresh_every,
            algorithm=algorithm,
        )
        return 201, campaign.describe()

    def _ingest(self, campaign_id: str, payload: dict):
        seq = payload.get("seq")
        if seq is not None:
            seq = coerce_integer(payload, "seq", 0)
        batch = batch_from_json(payload)
        update = self.store.ingest(campaign_id, batch, seq=seq)
        if update is None:
            # The batch with this seq was already journaled and applied
            # — the retry of an ingest whose acknowledgement was lost.
            return 200, {"duplicate": True, "seq": seq}
        return 200, asdict(update)

    def _auction(self, campaign_id: str, payload: dict):
        unknown = sorted(set(payload) - {"cap"})
        if unknown:
            raise ReproError(
                f"unknown auction field(s) {unknown}; only 'cap' is accepted"
            )
        cap = None
        if payload.get("cap") is not None:
            cap = coerce_number(payload, "cap", 0.0)
        outcome = self.store.auction(campaign_id, requirement_cap=cap)
        auction = outcome.auction
        return 200, {
            "winners": list(auction.winner_ids),
            "payments": {w: auction.payments[w] for w in auction.winner_ids},
            "social_cost": auction.social_cost,
            "total_payment": auction.total_payment,
            "platform_utility": outcome.platform_utility,
            "social_welfare": outcome.social_welfare,
        }


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON-over-HTTP adapter around a :class:`StreamingApp`."""

    app: StreamingApp  # set by make_server on the subclass
    quiet = True
    protocol_version = "HTTP/1.1"
    timeout = DEFAULT_REQUEST_TIMEOUT  # per-connection socket timeout
    disable_nagle_algorithm = True  # the body goes out without awaiting an ACK

    def _respond(self) -> None:
        header = self.headers.get("Content-Length") or 0
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # The body cannot be delimited: answer, then drop the
            # connection rather than parse leftover bytes as a request.
            self._send(
                400, {"error": f"invalid Content-Length header: {header!r}"}, close=True
            )
            return
        if length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry
            # another request either.
            self._send(
                413,
                {"error": f"request body of {length} bytes exceeds the "
                 f"{MAX_BODY_BYTES}-byte limit"},
                close=True,
            )
            return
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            # Invalid UTF-8 and nesting deeper than the recursion limit
            # do not raise JSONDecodeError.
            self._send(400, {"error": f"invalid JSON body: {exc}"})
            return
        try:
            status, body = self.app.handle(self.command, self.path, payload)
        except Exception as exc:  # last resort: never drop the connection
            status, body = 500, {"error": f"internal error: {exc}"}
        self._send(status, body)

    def _send(
        self, status: int, body: dict | str | bytes, *, close: bool = False
    ) -> None:
        # /metrics returns exposition text; everything else is JSON,
        # bytes already encoded.
        if isinstance(body, str):
            data = body.encode("utf-8")
            content_type = CONTENT_TYPE
        else:
            data = body if isinstance(body, bytes) else json.dumps(body).encode()
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if status == 503:
            self.send_header("Retry-After", str(max(1, round(body["retry_after"]))))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def handle_one_request(self) -> None:
        # Waiting for its next request line, a connection is idle, and a
        # shutdown closes it; a request that arrived drains.
        self.close_connection = not self.server.mark_idle(self.connection, True)
        try:
            if not self.close_connection:
                super().handle_one_request()
        finally:
            self.server.mark_idle(self.connection, False)

    def parse_request(self) -> bool:
        self.server.mark_idle(self.connection, False)
        return super().parse_request()

    do_GET = do_POST = do_DELETE = _respond

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:
            get_logger("repro.http").info(
                format % args, client=self.address_string()
            )


class GracefulHTTPServer(ThreadingHTTPServer):
    """Threading server whose ``server_close`` drains in-flight requests.

    ``daemon_threads=False`` + ``block_on_close=True`` make
    ``server_close()`` join every live handler thread, so a graceful
    shutdown answers the requests it already accepted before the
    process exits — nothing is dropped mid-body.  A kept-alive
    connection idle between requests has nothing to drain: its read side
    is shut, so its handler ends at once instead of waiting out
    :data:`DEFAULT_REQUEST_TIMEOUT`.
    """

    daemon_threads = False
    block_on_close = True
    _closing = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._idle: set[socket.socket] = set()
        self._idle_lock = threading.Lock()

    def mark_idle(self, connection: socket.socket, idle: bool) -> bool:
        """Mark ``connection`` idle or busy; False once closing."""
        with self._idle_lock:
            if idle and not self._closing:
                self._idle.add(connection)
            else:
                self._idle.discard(connection)
            return not self._closing

    def server_close(self) -> None:
        with self._idle_lock:
            self._closing = True
            idle = list(self._idle)
        for connection in idle:
            with contextlib.suppress(OSError):
                connection.shutdown(socket.SHUT_RD)
        super().server_close()


def make_server(
    app: StreamingApp,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = True,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
) -> ThreadingHTTPServer:
    """Bind ``app`` to a threading HTTP server (port 0 = ephemeral)."""
    handler = type(
        "BoundHandler",
        (_Handler,),
        {"app": app, "quiet": quiet, "timeout": request_timeout},
    )
    return GracefulHTTPServer((host, port), handler)


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    store: CampaignStore | None = None,
    quiet: bool = False,
    install_signal_handlers: bool = True,
) -> None:
    """Run the service until interrupted (the ``repro serve`` entry).

    Serving enables the process metrics registry — a live service
    without ``/metrics`` data would be pointless — and logs structured
    JSON lines instead of bare prints.

    SIGTERM and SIGINT shut down gracefully: the listener stops
    accepting, in-flight requests drain to completion, every campaign
    journal is flushed and closed, and the process exits 0.  (A
    ``kill -9`` skips all of that by design — which is exactly what
    the write-ahead journal exists to survive.)
    """
    get_registry().enable()
    log = get_logger("repro.serve")
    app = StreamingApp(store)
    server = make_server(app, host, port, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    log.info(
        "streaming service listening",
        url=f"http://{bound_host}:{bound_port}",
        host=str(bound_host),
        port=int(bound_port),
    )
    # Keep the one human-facing line on stdout: scripts (and the CI
    # smoke job) grep it to learn the bound ephemeral port.
    print(f"repro streaming service on http://{bound_host}:{bound_port}", flush=True)

    stop_requested = threading.Event()

    def _request_stop(signum, frame):  # pragma: no cover - signal path
        if stop_requested.is_set():
            return
        stop_requested.set()
        log.info("shutdown requested", signal=int(signum))
        # shutdown() blocks until serve_forever returns — calling it
        # from the signal handler (which runs on the serving thread)
        # would deadlock, so hand it to a helper thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous_handlers = {}
    if install_signal_handlers and threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, _request_stop)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # Ctrl-C without our SIGINT handler
        log.info("shutting down")
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        server.server_close()  # drains in-flight handler threads
        if app.store is not None:
            app.store.close()  # flush + close every campaign journal
        log.info("shutdown complete")
