"""In-memory span tracing installed from outside the program.

The benchmark never edits ``src/``.  Instead :func:`instrument` wraps the
public callables at each layer boundary of the ``repro`` package and
records one span per call: name, start, end, parent span and the run
(benchmark operation) it belongs to.  Spans stay in memory until the
run ends, then ``layers.py`` turns them into per-layer self times and
counts.

Module-level functions are patched in every loaded ``repro`` module that
holds them, because callers such as ``repro.core.date`` import engine
kernels by name: patching only the defining module would miss those
calls.  Methods, classmethods and cached properties are patched on
their class.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: Span names, one per wrapped boundary.  Layer metrics group them.
INDEX_BUILD = "indexing.build"
INDEX_EXTEND = "indexing.extend"
INDEX_VALIDATE = "indexing.validate"
ENGINE_DEPENDENCE = "engine.dependence"
ENGINE_INDEPENDENCE = "engine.independence"
ENGINE_POSTERIOR = "engine.posterior"
ENGINE_SUPPORT = "engine.support"
DATE_MATERIALIZE = "date.materialize"
DATE_RUN = "date.run"
ONLINE_INGEST = "online.ingest"
JOURNAL_APPEND = "journal.append"
STORE_INGEST = "store.ingest"
SERVER_HANDLE = "server.handle"
SERVER_DECODE = "server.decode"
CLIENT_REQUEST = "client.request"
SOAC_BUILD = "soac.build"
AUCTION_RUN = "auction.run"
AUCTION_SELECT = "auction.select"


class Tracer:
    """Collects spans and counts from wrapped callables.

    A span is the tuple ``(id, name, start, end, parent, run, thread)``;
    ``parent`` is the id of the enclosing span on the same thread (or
    -1) and ``run`` the benchmark operation active when it started.
    Times come from ``time.perf_counter``, which on Linux reads the
    system-wide monotonic clock, so spans written by a server process
    line up with the client's.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def set_run(self, run_id: str | None) -> None:
        """Tag spans started on this thread with ``run_id``."""
        self._local.run = run_id

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a ``name`` span per call.

        ``before(args, kwargs)`` runs ahead of the call and its return
        value is handed to ``after(token, args, kwargs, result)`` once
        the call returns; both run outside the span so their cost is
        not charged to it.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            token = before(args, kwargs) if before is not None else None
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (
                        span_id,
                        name,
                        start,
                        end,
                        parent,
                        getattr(local, "run", None),
                        threading.get_ident(),
                    )
                )
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Wrap ``module.attr`` wherever a loaded ``repro`` module holds it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, after=after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, traced)

    def patch_reference(self, module, attr: str, name: str) -> None:
        """Wrap ``module.attr`` in that one module only."""
        self._replace(module, attr, self.wrap(name, getattr(module, attr)))

    def patch_method(
        self, cls, attr: str, name: str, before=None, after=None
    ) -> None:
        """Wrap a method, classmethod or cached property on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, functools.cached_property):
            self._replace(raw, "func", self.wrap(name, raw.func, before, after))
        elif isinstance(raw, classmethod):
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, before, after)))
        else:
            self._replace(cls, attr, self.wrap(name, raw, before, after))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def dump(self, path: str | os.PathLike) -> None:
        """Write spans and counts as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def instrument(tracer: Tracer) -> None:
    """Install the layer-boundary wrappers on the ``repro`` package.

    Imports every module whose callables are wrapped first, so the
    name scan in :meth:`Tracer.patch_function` sees all importers.
    """
    import repro.auction.engine as auction_engine
    import repro.auction.reverse_auction  # noqa: F401  (imports run_auction lazily)
    import repro.core.date as date_mod
    import repro.core.engine as engine
    import repro.mechanism.imc2  # noqa: F401
    import repro.streaming.client as client_mod
    import repro.streaming.server as server_mod
    from repro.auction.soac import SOACInstance
    from repro.core.indexing import ClaimArrays, DatasetIndex
    from repro.streaming.campaign import CampaignStore
    from repro.streaming.journal import CampaignJournal
    from repro.streaming.online import OnlineDATE

    # core.indexing: cold builds, the streaming append path, validation.
    def count_claims(_token, args, _kwargs, _result):
        tracer.count("indexing.claims", args[0].n_claims)

    def count_pair_rows(_token, _args, _kwargs, result):
        tracer.count("indexing.pair_rows", len(result[3]))

    def count_appended_claims(_token, _args, kwargs, _result):
        tracer.count("indexing.claims", len(kwargs.get("claims") or ()))

    tracer.patch_method(DatasetIndex, "__init__", INDEX_BUILD)
    tracer.patch_method(ClaimArrays, "__post_init__", INDEX_BUILD, after=count_claims)
    tracer.patch_method(ClaimArrays, "_pair_tables", INDEX_BUILD, after=count_pair_rows)
    tracer.patch_method(ClaimArrays, "pair_rows_by_task", INDEX_BUILD)
    tracer.patch_method(
        DatasetIndex, "extended", INDEX_EXTEND, after=count_appended_claims
    )
    tracer.patch_method(DatasetIndex, "validate_extension", INDEX_VALIDATE)

    # core.engine: the four kernel phases of one DATE iteration.
    tracer.patch_function(engine, "pairwise_dependence_arrays", ENGINE_DEPENDENCE)
    tracer.patch_method(engine.IncrementalDependence, "refresh", ENGINE_DEPENDENCE)
    tracer.patch_function(engine, "independence_flat", ENGINE_INDEPENDENCE)
    for kernel in ("discounted_posterior_groups", "plain_posterior_groups", "accuracy_flat"):
        tracer.patch_function(engine, kernel, ENGINE_POSTERIOR)
    tracer.patch_function(engine, "support_flat", ENGINE_SUPPORT)
    tracer.patch_function(
        engine,
        "select_truth_codes",
        ENGINE_SUPPORT,
        after=lambda _t, _a, _k, _r: tracer.count("engine.iterations"),
    )

    # core.date: result materialization and DATE.run itself.
    for table in ("dependence_table", "posterior_table", "support_table", "dense_accuracy"):
        tracer.patch_function(engine, table, DATE_MATERIALIZE)
    tracer.patch_function(date_mod, "build_result", DATE_MATERIALIZE)
    tracer.patch_method(date_mod.DATE, "run", DATE_RUN)

    # streaming.online: one span per ingest; dirty scope and sub-run
    # iterations are read off the returned OnlineUpdate.
    def count_online(_token, args, _kwargs, update):
        tracer.count("online.dirty_tasks", update.dirty_tasks)
        tracer.count("online.campaign_tasks", args[0].index.n_tasks)
        tracer.count("online.subrun_iterations", update.iterations)

    tracer.patch_method(OnlineDATE, "ingest", ONLINE_INGEST, after=count_online)

    # streaming.journal / campaign / server / client.
    def journal_size(args, _kwargs):
        path = args[0].path
        return os.path.getsize(path) if os.path.exists(path) else 0

    def count_journal(before, args, _kwargs, _result):
        tracer.count("journal.bytes", os.path.getsize(args[0].path) - before)

    tracer.patch_method(
        CampaignJournal, "append", JOURNAL_APPEND, before=journal_size, after=count_journal
    )
    tracer.patch_method(CampaignStore, "ingest", STORE_INGEST)
    tracer.patch_method(server_mod.StreamingApp, "handle", SERVER_HANDLE)
    # Only the server's reference: the decode of request bodies (journal
    # recovery decodes through other modules).
    tracer.patch_reference(server_mod, "batch_from_json", SERVER_DECODE)

    def count_http(_token, args, kwargs, reply):
        payload = args[3] if len(args) > 3 else kwargs.get("payload")
        if payload is not None:
            tracer.count("http.request_bytes", len(json.dumps(payload)))
        tracer.count("http.response_bytes", len(json.dumps(reply)))

    tracer.patch_method(
        client_mod.StreamingClient, "request", CLIENT_REQUEST, after=count_http
    )

    # auction.soac / auction.engine.
    tracer.patch_method(SOACInstance, "from_truth_discovery", SOAC_BUILD)
    tracer.patch_method(SOACInstance, "with_capped_requirements", SOAC_BUILD)

    def count_auction(_token, _args, _kwargs, result):
        winners, _payments, monopolists = result
        tracer.count("auction.winners", len(winners))
        tracer.count("auction.monopolists", len(monopolists))

    tracer.patch_function(auction_engine, "run_auction", AUCTION_RUN, after=count_auction)
    tracer.patch_function(auction_engine, "batched_greedy_cover", AUCTION_SELECT)
