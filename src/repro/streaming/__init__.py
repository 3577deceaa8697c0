"""Streaming ingestion and online truth discovery.

The serving layer of the reproduction: claims arrive in
:class:`ClaimBatch` deltas, :class:`OnlineDATE` keeps a campaign's
truths and worker reputations current at O(affected segments) per
batch (with periodic full refreshes for exactness), a
:class:`CampaignStore` multiplexes many concurrent campaigns in one
process, and :mod:`repro.streaming.server` exposes the whole thing as
a stdlib HTTP/JSON API (``repro serve``).  See DESIGN.md §8.

Durability (DESIGN.md §15): with a journal directory the store
write-ahead journals campaign creation and every claim batch
(:mod:`repro.streaming.journal`), replays them deterministically after
a crash, and :class:`StreamingClient` retries against the degraded
server with exactly-once sequence numbers.
:mod:`repro.streaming.faults` is the seeded fault injector the
kill-and-recover tests drive.
"""

from .campaign import (
    Campaign,
    CampaignStore,
    DuplicateCampaignError,
    UnknownCampaignError,
)
from .client import ClientError, ServerUnavailableError, StreamingClient
from .faults import FaultInjector, InjectedCrash, get_injector, set_injector
from .ingest import (
    ClaimBatch,
    batch_from_json,
    batch_to_json,
    replay_batches,
    task_from_spec,
    worker_from_spec,
)
from .journal import (
    CampaignJournal,
    JournalCorruptError,
    JournalError,
    JournalWriteError,
    list_journals,
    read_journal,
)
from .online import OnlineDATE, OnlineUpdate
from .server import StreamingApp, make_server, serve

__all__ = [
    "Campaign",
    "CampaignJournal",
    "CampaignStore",
    "ClaimBatch",
    "ClientError",
    "DuplicateCampaignError",
    "FaultInjector",
    "InjectedCrash",
    "JournalCorruptError",
    "JournalError",
    "JournalWriteError",
    "OnlineDATE",
    "OnlineUpdate",
    "ServerUnavailableError",
    "StreamingApp",
    "StreamingClient",
    "UnknownCampaignError",
    "batch_from_json",
    "batch_to_json",
    "get_injector",
    "list_journals",
    "make_server",
    "read_journal",
    "replay_batches",
    "serve",
    "set_injector",
    "task_from_spec",
    "worker_from_spec",
]
