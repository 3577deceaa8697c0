"""Campaign admission in the store: every path that inserts or drops a
campaign — create, journal recovery, explicit evict — counts its drops
and keeps the live gauge current."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, set_registry
from repro.streaming import CampaignStore


@pytest.fixture
def telemetry():
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


def _evicted(registry) -> float:
    return registry.counter("streaming_campaigns_evicted_total").value


def _live(registry) -> float:
    return registry.gauge("streaming_campaigns_live").value


def test_create_and_evict_count_their_drops(telemetry):
    store = CampaignStore(max_campaigns=1)
    store.create("a")
    store.create("b")  # LRU-evicts "a"
    assert "a" not in store
    assert (_evicted(telemetry), _live(telemetry)) == (1.0, 1.0)
    store.evict("b")
    assert (_evicted(telemetry), _live(telemetry)) == (2.0, 0.0)


def test_recovery_counts_its_lru_evictions(tmp_path, telemetry):
    wal = tmp_path / "wal"
    store = CampaignStore(journal_dir=wal)
    store.create("a")
    store.create("b")
    store.close()
    assert _evicted(telemetry) == 0.0

    reopened = CampaignStore(journal_dir=wal, max_campaigns=1)
    assert len(reopened) == 1
    assert (_evicted(telemetry), _live(telemetry)) == (1.0, 1.0)
    reopened.close()


@pytest.mark.parametrize(
    "settings",
    [
        {"refresh_every": 2.5},
        {"refresh_every": -1},
        {"refresh_every": True},
        {"max_campaigns": True},
        {"max_campaigns": 2.5},
        {"max_campaigns": 0},
        {"max_campaigns": "2"},
    ],
)
def test_store_defaults_are_checked_before_the_journal_directory(tmp_path, settings):
    # A cadence or a capacity the store would apply differently (2.5
    # refreshes as 2, True evicts down to one campaign) is refused at
    # construction, before the journal directory is made or recovered.
    from repro.errors import ConfigurationError

    wal = tmp_path / "wal"
    with pytest.raises(ConfigurationError, match=next(iter(settings))):
        CampaignStore(journal_dir=wal, **settings)
    assert not wal.exists()
