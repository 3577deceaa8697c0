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
