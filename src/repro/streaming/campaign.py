"""Multi-campaign store: many concurrent online campaigns, one process.

:class:`CampaignStore` is the state backing the HTTP service — a
thread-safe map of campaign id to :class:`~repro.streaming.online.
OnlineDATE` with the operations the API exposes: create, ingest,
estimate (snapshot or full refresh), snapshot-as-JSON, auction, evict.
An optional capacity bound evicts the least-recently-used campaign so
one process can serve an unbounded campaign churn with bounded memory.

With ``journal_dir`` set the store is **crash-safe** (DESIGN.md §15):
campaign creation and every claim batch are journaled — fsync'd —
*before* the estimator publishes them, explicit refreshes are journaled
as intents, and a restarted store replays the journals back to the
exact pre-crash state, re-running each journaled refresh (a refresh is
a deterministic function of the campaign's claims).  Batch sequence
numbers double as the exactly-once dedup key for retried ingests.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable
from pathlib import Path

from ..core.config import DateConfig
from ..core.date import TruthDiscoveryResult
from ..discovery import canonical_algorithm
from ..errors import ConfigurationError, ReproError, UnknownNameError
from ..mechanism.imc2 import IMC2, IMC2Outcome
from ..obs.logging import get_logger
from ..obs.metrics import get_registry
from ..types import Task, WorkerProfile
from .faults import get_injector
from .ingest import ClaimBatch, batch_from_json, is_integer
from .journal import (
    CampaignJournal,
    JournalError,
    batch_from_record,
    batch_record,
    create_record,
    fsync_dir,
    journal_path,
    list_journals,
    read_journal,
    refresh_record,
    verify_config,
)
from .online import OnlineDATE, OnlineState, OnlineUpdate

__all__ = [
    "Campaign",
    "CampaignStore",
    "DuplicateCampaignError",
    "UnknownCampaignError",
]

#: Process-wide counter making concurrent temp-journal names unique.
_TMP_JOURNAL_IDS = itertools.count(1)


class UnknownCampaignError(UnknownNameError):
    """A campaign id is not present in the store."""

    def __init__(self, campaign_id: str):
        self.campaign_id = campaign_id
        super().__init__(f"unknown campaign {campaign_id!r}")


class DuplicateCampaignError(ReproError, ValueError):
    """A campaign id is already present in the store."""

    def __init__(self, campaign_id: str):
        self.campaign_id = campaign_id
        super().__init__(f"campaign {campaign_id!r} already exists")


class Campaign:
    """One live campaign: an online estimator plus bookkeeping.

    ``lock`` serializes this campaign's writers only, so a long refresh
    on one campaign never blocks traffic to another; the store's own
    lock guards nothing but the campaign map.  Reads take no lock: each
    reads the estimator's published state once.

    ``applied_seq`` is the sequence number of the last claim batch the
    estimator applied — the exactly-once watermark retried ingests are
    deduplicated against; set just after the batch is published, a
    lock-free read may see it one behind.  ``journal`` is the
    campaign's write-ahead journal when the store is durable, else
    ``None``.
    """

    def __init__(
        self,
        campaign_id: str,
        online: OnlineDATE,
        *,
        journal: CampaignJournal | None = None,
        created_at: float | None = None,
    ):
        self.campaign_id = campaign_id
        self.online = online
        self.lock = threading.RLock()
        self.created_at = time.time() if created_at is None else created_at
        self.last_update = self.created_at
        self.applied_seq = 0
        self.journal = journal

    def describe(self, state: OnlineState | None = None) -> dict:
        """JSON-safe summary (sizes and counters, no estimates) of
        ``state``, by default the published one."""
        state = state or self.online.state
        index = state.index
        return {
            "campaign_id": self.campaign_id,
            "algorithm": self.online.algorithm,
            "tasks": index.n_tasks,
            "workers": index.n_workers,
            "claims": index.arrays.n_claims,
            "batches": state.batches,
            "applied_seq": self.applied_seq,
            "journaled": self.journal is not None,
            "created_at": self.created_at,
            "last_update": self.last_update,
        }


class CampaignStore:
    """Thread-safe map of live campaigns with LRU capacity eviction.

    Locking is two-level: the store lock guards only the campaign map
    (membership and LRU order), while each campaign carries its own
    lock that serializes its writers — so a slow refresh or auction on
    one campaign never stalls requests to the others.  Reads take no
    campaign lock: they read the estimator's published state once, so
    they never wait for a refresh, an auction or an ingest.  An auction
    holds its campaign's lock only for its refresh and to capture the
    index that refresh published; the reverse auction runs outside it.
    An eviction racing an in-flight operation lets
    that operation finish on the orphaned campaign object; the store
    simply stops handing it out.

    Parameters
    ----------
    config:
        Default DATE hyperparameters for campaigns created without an
        explicit config.
    refresh_every:
        Default periodic-refresh cadence for new campaigns (0 = only
        explicit refreshes).
    algorithm:
        Default truth-discovery algorithm for new campaigns (any zoo
        member; per-campaign override via :meth:`create`).
    max_campaigns:
        When set, creating a campaign beyond this count evicts the
        least recently touched one.
    journal_dir:
        When set, the store is durable: campaign creation and every
        claim batch are appended — fsync'd — to a per-campaign
        write-ahead journal *before* the estimator publishes them, and
        construction replays existing journals back into live
        campaigns (:meth:`recover`), so the store serves nothing
        before every journal is replayed.
    """

    def __init__(
        self,
        *,
        config: DateConfig | None = None,
        refresh_every: int = 0,
        max_campaigns: int | None = None,
        algorithm: str = "DATE",
        journal_dir: str | Path | None = None,
    ):
        # Checked before the journal directory is made or recovered.
        if not is_integer(refresh_every) or refresh_every < 0:
            raise ConfigurationError(
                f"refresh_every must be an int >= 0, got {refresh_every!r}"
            )
        if max_campaigns is not None and (
            not is_integer(max_campaigns) or max_campaigns < 1
        ):
            raise ConfigurationError(
                f"max_campaigns must be an int >= 1, got {max_campaigns!r}"
            )
        self.default_config = config or DateConfig()
        self.default_refresh_every = refresh_every
        self.default_algorithm = canonical_algorithm(algorithm)
        self.max_campaigns = max_campaigns
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self._campaigns: OrderedDict[str, Campaign] = OrderedDict()
        self._lock = threading.RLock()
        self.last_recovery: list[dict] = []
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
            # A crash between writing a create record to its temp file
            # and linking it into place leaves an orphan: the campaign
            # was never acknowledged, so the debris just goes.
            for orphan in self.journal_dir.glob(".*.tmp"):
                orphan.unlink(missing_ok=True)
            self.recover()

    def __len__(self) -> int:
        with self._lock:
            return len(self._campaigns)

    def __contains__(self, campaign_id: str) -> bool:
        with self._lock:
            return campaign_id in self._campaigns

    def _get(self, campaign_id: str) -> Campaign:
        campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise UnknownCampaignError(campaign_id)
        self._campaigns.move_to_end(campaign_id)
        return campaign

    def _tmp_journal_path(self, campaign_id: str) -> Path:
        """A unique temp name for a journal being born.

        Unique per attempt, so two racing creates of the same id never
        share a temp file — the loser deletes only its own.  The names
        are dot-prefixed and ``.tmp``-suffixed, invisible to
        :func:`list_journals` and swept as orphans on startup.
        """
        name = journal_path(self.journal_dir, campaign_id).name
        return self.journal_dir / (
            f".{name}.{os.getpid()}.{next(_TMP_JOURNAL_IDS)}.tmp"
        )

    # -- operations ------------------------------------------------------

    def create(
        self,
        campaign_id: str,
        *,
        tasks: Iterable[Task] = (),
        workers: Iterable[WorkerProfile] = (),
        config: DateConfig | None = None,
        refresh_every: int | None = None,
        algorithm: str | None = None,
    ) -> Campaign:
        """Register a new campaign, optionally pre-publishing tasks."""
        if not campaign_id:
            raise ConfigurationError("campaign_id must be a non-empty string")
        with self._lock:
            if campaign_id in self._campaigns:
                raise DuplicateCampaignError(campaign_id)
        # Seed outside the store lock: pre-publishing a large task set
        # must not stall requests to other campaigns.  Two racing
        # creates of the same id both seed; the second insert loses.
        resolved_config = config or self.default_config
        resolved_refresh = (
            self.default_refresh_every if refresh_every is None else refresh_every
        )
        resolved_algorithm = algorithm or self.default_algorithm
        online = OnlineDATE(
            resolved_config,
            refresh_every=resolved_refresh,
            algorithm=resolved_algorithm,
        )
        campaign = Campaign(campaign_id, online)
        tasks = tuple(tasks)
        workers = tuple(workers)
        if tasks or workers:
            online.ingest(ClaimBatch(tasks=tasks, workers=workers))
        journal: CampaignJournal | None = None
        if self.journal_dir is not None:
            # Journal birth also happens out here: writing and fsyncing
            # the create record — seed batch included — can be slow and
            # must not stall requests to other campaigns.  The record
            # goes to a private temp file; only the atomic link into
            # place happens under the store lock, which keeps the
            # journal's appearance atomic with the map insert.
            journal = CampaignJournal(self._tmp_journal_path(campaign_id))
            try:
                journal.append(
                    create_record(
                        campaign_id,
                        config=resolved_config,
                        algorithm=online.algorithm,
                        refresh_every=online.refresh_every,
                        created_at=campaign.created_at,
                        seed_tasks=tasks,
                        seed_workers=workers,
                    )
                )
            except BaseException:
                journal.delete()
                raise
        try:
            with self._lock:
                if campaign_id in self._campaigns:
                    raise DuplicateCampaignError(campaign_id)
                if journal is not None:
                    # One atomic rename, clobbering any stale file an
                    # LRU-evicted ancestor of this id left behind.
                    journal.rename_to(
                        journal_path(self.journal_dir, campaign_id)
                    )
                    fsync_dir(self.journal_dir)
                    campaign.journal = journal
                evicted = self._admit(campaign)
        except DuplicateCampaignError:
            # Lost the race to another create: discard the never-linked
            # temp journal; the winner's file is untouched.
            if journal is not None:
                journal.delete()
            raise
        registry = get_registry()
        registry.counter(
            "streaming_campaigns_created_total", "Campaigns created."
        ).inc()
        self._dropped(evicted, registry)
        return campaign

    def _admit(self, campaign: Campaign) -> list[Campaign]:
        """Insert ``campaign`` as most recently used and pop the least
        recently used ones past ``max_campaigns``.

        The caller holds the store lock and hands the popped campaigns
        to :meth:`_dropped` once it has let go of it.  LRU eviction
        drops only the in-memory state: the journal file stays, so a
        durable store resurrects the campaign on the next recovery
        (re-creating the id rotates the file).
        """
        self._campaigns[campaign.campaign_id] = campaign
        evicted = []
        while (
            self.max_campaigns is not None
            and len(self._campaigns) > self.max_campaigns
        ):
            evicted.append(self._campaigns.popitem(last=False)[1])
        return evicted

    def _dropped(self, campaigns: list[Campaign], registry) -> None:
        """Release campaigns just taken out of the store, count them and
        update the live gauge.

        Releasing closes each journal and drops the campaign's labelled
        metric series, which caps label cardinality on long-lived
        servers — an evicted campaign's counters would otherwise be
        exported forever.
        """
        for campaign in campaigns:
            if campaign.journal is not None:
                with campaign.lock:
                    campaign.journal.close()
            if registry.enabled:
                registry.drop_labels("campaign", campaign.campaign_id)
        if campaigns:
            registry.counter(
                "streaming_campaigns_evicted_total",
                "Campaigns dropped (LRU capacity or explicit delete).",
            ).inc(len(campaigns))
        registry.gauge(
            "streaming_campaigns_live", "Campaigns currently in the store."
        ).set(len(self))

    def get(self, campaign_id: str) -> Campaign:
        with self._lock:
            return self._get(campaign_id)

    def ingest(
        self, campaign_id: str, batch: ClaimBatch, *, seq: int | None = None
    ) -> OnlineUpdate | None:
        """Apply a claim batch to one campaign — exactly once.

        ``seq`` is the client-assigned batch sequence number (1-based,
        contiguous per campaign; a non-integer or one below 1 is a
        :class:`~repro.errors.ConfigurationError`).  A batch whose
        ``seq`` is at or below the campaign's applied watermark was
        already journaled and applied — the retry of an ingest whose
        acknowledgement was lost — and returns ``None`` without
        touching the estimator.  Without ``seq`` the store assigns the
        next number itself.

        One ingest is one transaction: the estimator validates the
        batch and computes its next state, the store appends and
        fsyncs the batch record, then the estimator publishes.  A
        failure before the append (a 400 included) leaves nothing
        behind, and a crash after it is replayed to the same state.
        """
        if seq is not None:
            if not is_integer(seq) or seq < 1:
                raise ConfigurationError(
                    f"batch seq must be an int >= 1, got {seq!r}"
                )
            seq = int(seq)
        campaign = self.get(campaign_id)
        registry = get_registry()
        with campaign.lock:
            if seq is None:
                seq = campaign.applied_seq + 1
            elif seq <= campaign.applied_seq:
                registry.counter(
                    "streaming_duplicate_ingests_total",
                    "Retried claim batches deduplicated by sequence "
                    "number (exactly-once ingest).",
                    labels={"campaign": campaign_id},
                ).inc()
                return None
            elif seq != campaign.applied_seq + 1:
                raise ConfigurationError(
                    f"out-of-order ingest: seq {seq} after applied "
                    f"seq {campaign.applied_seq} (expected "
                    f"{campaign.applied_seq + 1})"
                )
            journal = None if campaign.journal is None else functools.partial(
                self._journal_batch, campaign, seq, batch
            )
            start = time.perf_counter()
            update = campaign.online.ingest(batch, journal)
            elapsed = time.perf_counter() - start
            campaign.applied_seq = seq
            campaign.last_update = time.time()
        labels = {"campaign": campaign_id}
        registry.counter(
            "streaming_ingest_batches_total",
            "Claim batches ingested per campaign.",
            labels=labels,
        ).inc()
        registry.counter(
            "streaming_claims_ingested_total",
            "Claims ingested per campaign.",
            labels=labels,
        ).inc(batch.n_claims)
        registry.timer(
            "streaming_ingest_seconds",
            "Wall time of one claim-batch ingest (estimator update and "
            "journal append included).",
            labels=labels,
        ).observe(elapsed)
        return update

    @staticmethod
    def _journal_batch(campaign: Campaign, seq: int, batch: ClaimBatch) -> None:
        """Append and fsync one batch record (campaign lock held)."""
        registry = get_registry()
        start = time.perf_counter()
        try:
            campaign.journal.append(batch_record(seq, batch))
        except JournalError:
            registry.counter(
                "streaming_journal_write_failures_total",
                "Ingest journal appends that failed (each one "
                "became a 503, never an applied batch).",
            ).inc()
            raise
        registry.counter(
            "streaming_journal_appends_total",
            "Write-ahead journal records appended per campaign.",
            labels={"campaign": campaign.campaign_id},
        ).inc()
        registry.timer(
            "streaming_journal_append_seconds",
            "Wall time of one fsync'd journal append.",
        ).observe(time.perf_counter() - start)

    def _refresh(self, campaign: Campaign) -> TruthDiscoveryResult:
        """Full refresh (campaign lock must be held).

        On a journaled campaign the refresh *intent* is appended after
        the refresh is computed and before it is published, so recovery
        re-runs the refresh at the same point in the batch sequence.
        """
        registry = get_registry()
        start = time.perf_counter()
        journal = None if campaign.journal is None else functools.partial(
            self._journal_refresh, campaign
        )
        result = campaign.online.refresh(journal)
        labels = {"campaign": campaign.campaign_id}
        registry.counter(
            "streaming_refreshes_total",
            "Full re-estimations per campaign.",
            labels=labels,
        ).inc()
        registry.timer(
            "streaming_refresh_seconds",
            "Wall time of one full refresh.",
            labels=labels,
        ).observe(time.perf_counter() - start)
        return result

    @staticmethod
    def _journal_refresh(campaign: Campaign) -> None:
        """Append and fsync a refresh intent (campaign lock held)."""
        campaign.journal.append(refresh_record(campaign.applied_seq))
        get_injector().fire("store.mid_refresh")

    def estimate(
        self, campaign_id: str, *, refresh: bool = False
    ) -> TruthDiscoveryResult:
        """Current estimate (a lock-free read); ``refresh=True`` forces
        a full re-run."""
        campaign = self.get(campaign_id)
        if not refresh:
            return campaign.online.snapshot()
        with campaign.lock:
            result = self._refresh(campaign)
            campaign.last_update = time.time()
            return result

    def truths(self, campaign_id: str) -> dict:
        """Current truths + confidence of one campaign, both from one
        published state (lock-free read)."""
        state = self.get(campaign_id).online.state
        return {"truths": dict(state.truths), "confidence": dict(state.confidence)}

    def truths_body(self, campaign_id: str) -> bytes:
        """:meth:`truths` as the encoded JSON body a read sends, built
        once per published state (lock-free read)."""
        return self.get(campaign_id).online.state.truths_body

    def worker_accuracy(self, campaign_id: str) -> dict[str, float]:
        """Current worker reputations of one campaign (lock-free read)."""
        return self.get(campaign_id).online.worker_accuracy

    def auction(
        self,
        campaign_id: str,
        *,
        requirement_cap: float | None = None,
    ) -> IMC2Outcome:
        """Run the IMC2 mechanism on a campaign's accumulated data.

        Stage 1 reuses a fresh full refresh (so the auction prices
        exact, not incrementally approximated, accuracies); stage 2 is
        the reverse auction over truthful bids.  The mechanism is built
        first, so a bad ``requirement_cap`` is rejected before the
        refresh is journaled or computed.

        Only the refresh and the capture of the index it published hold
        the campaign lock; the mechanism prices that index outside it
        (an ingest publishes an extension and never mutates it), so
        ingests proceed meanwhile and reads never wait.
        """
        campaign = self.get(campaign_id)
        mechanism = IMC2(requirement_cap=requirement_cap)
        with campaign.lock:
            truth = self._refresh(campaign)
            campaign.last_update = time.time()
            index = campaign.online.state.index
        return mechanism.run(None, index=index, truth=truth)

    def snapshot(self, campaign_id: str) -> dict:
        """JSON-safe campaign state: summary + estimates + reputations,
        all from one published state (lock-free read)."""
        campaign = self.get(campaign_id)
        state = campaign.online.state
        return {
            **campaign.describe(state),
            "truths": dict(state.truths),
            "confidence": dict(state.confidence),
            "worker_accuracy": state.worker_accuracy(),
        }

    def evict(self, campaign_id: str) -> None:
        """Drop a campaign (raises if unknown).

        An explicit evict is a durable delete: the campaign's journal
        file is removed, so a restarted store does not resurrect it.
        """
        with self._lock:
            campaign = self._campaigns.pop(campaign_id, None)
            if campaign is None:
                raise UnknownCampaignError(campaign_id)
        if campaign.journal is not None:
            with campaign.lock:
                campaign.journal.delete()
        self._dropped([campaign], get_registry())

    def list_campaigns(self) -> list[dict]:
        """Summaries of all live campaigns, least recently used first."""
        with self._lock:
            return [c.describe() for c in self._campaigns.values()]

    def close(self) -> None:
        """Flush and close every campaign journal (graceful shutdown)."""
        with self._lock:
            campaigns = list(self._campaigns.values())
        for campaign in campaigns:
            if campaign.journal is not None:
                with campaign.lock:
                    campaign.journal.close()

    # -- recovery --------------------------------------------------------

    def recover(self) -> list[dict]:
        """Replay every journal under ``journal_dir`` into live campaigns.

        Idempotent; campaigns already live are skipped.  Each journal
        is scanned (a torn tail is dropped and truncated), its create
        record rebuilds the estimator, and its batch/refresh records
        replay in order.

        A corrupt journal fails *its* campaign only: the campaign is
        reported (``status: "corrupt"``) and skipped, the store keeps
        serving everything else.  Returns the per-campaign reports
        (also kept on :attr:`last_recovery`).
        """
        if self.journal_dir is None:
            return []
        log = get_logger("repro.streaming.recovery")
        registry = get_registry()
        reports: list[dict] = []
        start_all = time.perf_counter()
        found = list_journals(self.journal_dir)
        with self._lock:
            pending = [
                (cid, path)
                for cid, path in found
                if cid not in self._campaigns
            ]
        for campaign_id, path in pending:
            start = time.perf_counter()
            try:
                campaign, report = self._replay_journal(campaign_id, path)
            except (JournalError, ReproError) as exc:
                report = {
                    "campaign_id": campaign_id,
                    "status": "corrupt",
                    "error": str(exc),
                }
                campaign = None
                log.warning(
                    "journal replay failed; campaign skipped",
                    campaign=campaign_id,
                    error=str(exc),
                )
            report["seconds"] = round(time.perf_counter() - start, 6)
            with self._lock:
                evicted = [] if campaign is None else self._admit(campaign)
            self._dropped(evicted, registry)
            registry.counter(
                "streaming_recovered_campaigns_total",
                "Journal replays at startup, by outcome.",
                labels={"status": report["status"]},
            ).inc()
            reports.append(report)
        registry.timer(
            "streaming_recovery_seconds",
            "Wall time of one full journal-directory recovery.",
        ).observe(time.perf_counter() - start_all)
        if reports:
            log.info(
                "journal recovery finished",
                campaigns=len(reports),
                recovered=sum(1 for r in reports if r["status"] == "recovered"),
                seconds=round(time.perf_counter() - start_all, 3),
            )
        self.last_recovery = reports
        return reports

    def _replay_journal(
        self, campaign_id: str, path: Path
    ) -> tuple[Campaign | None, dict]:
        """Rebuild one campaign from its journal file."""
        registry = get_registry()
        scan = read_journal(path)
        journal = CampaignJournal(path)
        report: dict = {
            "campaign_id": campaign_id,
            "status": "recovered",
            "batches": 0,
            "claims": 0,
            "refreshes": 0,
            "torn": scan.torn,
        }
        if scan.torn:
            # The torn record was never acknowledged: drop it before
            # anything appends after it (a tear mid-file is corruption).
            journal.truncate_to(scan.valid_bytes)
            registry.counter(
                "streaming_torn_records_total",
                "Torn journal tail records dropped during recovery.",
            ).inc()
        if not scan.records:
            # Crash before the create record was durable: the campaign
            # was never acknowledged to exist.
            journal.delete()
            report["status"] = "empty"
            return None, report
        create = scan.records[0]
        try:
            config = verify_config(create["config"], create.get("config_fp"))
        except ReproError as exc:  # a digest mismatch or an invalid field
            journal.close()
            raise JournalError(f"{path.name}: {exc}") from exc
        online = OnlineDATE(
            config,
            refresh_every=int(create["refresh_every"]),
            algorithm=str(create["algorithm"]),
        )
        if "seed" in create:
            online.ingest(batch_from_json(create["seed"]))
        applied_seq = 0
        for record in scan.records[1:]:
            if record["kind"] == "batch":
                batch = batch_from_record(record)
                online.ingest(batch)
                applied_seq = int(record["seq"])
                report["batches"] += 1
                report["claims"] += batch.n_claims
            else:  # refresh (older records' ``fingerprint`` is ignored)
                online.refresh()
                report["refreshes"] += 1
        campaign = Campaign(
            campaign_id,
            online,
            journal=journal,
            created_at=float(create.get("created_at") or time.time()),
        )
        campaign.applied_seq = applied_seq
        registry.counter(
            "streaming_recovered_batches_total",
            "Claim batches replayed from journals during recovery.",
        ).inc(report["batches"])
        return campaign, report
