"""Journals written before DateConfig's execution knobs were retired.

``tests/fixtures/legacy_journals/`` holds two journals written by the
:class:`CampaignStore` of the release whose ``DateConfig`` still
carried the ``backend``, ``stable_dependence`` and ``intra_workers``
knobs (their README says how).  Their create records therefore hold
those three keys in the config payload, and each ``config_fp`` digests
the 15-field config.  Recovery must drop the keys, verify the legacy
digest, and land bit for bit where a fresh replay of the same batches
under the current code lands; a record whose retired values were
edited after the fact must be refused.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro import DateConfig
from repro.streaming import CampaignStore, OnlineDATE
from repro.streaming.journal import (
    CampaignJournal,
    batch_from_record,
    config_fingerprint,
    create_record,
    journal_path,
    read_journal,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "legacy_journals"

#: What the fixtures' create records carry besides the current fields.
RETIRED = {
    "legacy": {"backend": "vectorized", "stable_dependence": False, "intra_workers": 1},
    "legacy-knobs": {"backend": "reference", "stable_dependence": True, "intra_workers": 2},
}


def _records(campaign_id: str) -> tuple[dict, ...]:
    return read_journal(journal_path(FIXTURES, campaign_id)).records


def _recover(directory: Path, campaign_id: str) -> tuple[CampaignStore, dict]:
    """Recover one fixture journal from a copy in ``directory``."""
    if not journal_path(directory, campaign_id).exists():
        shutil.copy(journal_path(FIXTURES, campaign_id), directory)
    store = CampaignStore(journal_dir=directory)
    (report,) = store.last_recovery
    return store, report


def _fresh_replay(records: tuple[dict, ...]) -> OnlineDATE:
    """The journal's batches and refreshes applied in-process, afresh."""
    create = records[0]
    online = OnlineDATE(
        DateConfig(),
        refresh_every=int(create["refresh_every"]),
        algorithm=str(create["algorithm"]),
    )
    for record in records[1:]:
        if record["kind"] == "batch":
            online.ingest(batch_from_record(record))
        else:
            online.refresh()
    return online


def _bits(values: dict[str, float]) -> dict[str, str]:
    return {key: float(value).hex() for key, value in values.items()}


@pytest.mark.parametrize("campaign_id", sorted(RETIRED))
def test_legacy_journal_recovers_bit_identical(tmp_path, campaign_id):
    records = _records(campaign_id)
    assert {record["kind"] for record in records} == {"create", "batch", "refresh"}
    assert sum(record["kind"] == "batch" for record in records) >= 3
    store, report = _recover(tmp_path, campaign_id)
    assert report["status"] == "recovered", report
    assert report["batches"] == sum(r["kind"] == "batch" for r in records)
    assert report["refreshes"] == 1

    online = store.get(campaign_id).online
    fresh = _fresh_replay(records)
    assert config_fingerprint(online.config) == config_fingerprint(DateConfig())
    assert online.truths == fresh.truths
    assert _bits(online.confidence) == _bits(fresh.confidence)
    assert _bits(online.worker_accuracy) == _bits(fresh.worker_accuracy)


@pytest.mark.parametrize("campaign_id", sorted(RETIRED))
def test_legacy_digest_is_rebuilt_exactly(campaign_id):
    create = _records(campaign_id)[0]
    assert {key: create["config"][key] for key in RETIRED[campaign_id]} == RETIRED[
        campaign_id
    ]
    assert config_fingerprint(DateConfig(), RETIRED[campaign_id]) == create["config_fp"]
    assert config_fingerprint(DateConfig()) != create["config_fp"]


def test_new_create_records_carry_no_retired_fields():
    record = create_record(
        "c", config=DateConfig(), algorithm="DATE", refresh_every=0, created_at=0.0
    )
    assert not set(record["config"]) & set(RETIRED["legacy"])
    assert record["config_fp"] == config_fingerprint(DateConfig())


@pytest.mark.parametrize(
    "field, value",
    [("intra_workers", 3), ("backend", "vectorized"), ("stable_dependence", False)],
)
def test_edited_retired_value_fails_the_config_check(tmp_path, field, value):
    records = list(_records("legacy-knobs"))
    create = dict(records[0], config=dict(records[0]["config"], **{field: value}))
    journal = CampaignJournal(journal_path(tmp_path, "legacy-knobs"))
    for record in [create, *records[1:]]:
        journal.append(record)
    journal.close()

    store, report = _recover(tmp_path, "legacy-knobs")
    assert report["status"] == "corrupt"
    assert "does not round-trip" in report["error"]
    assert "legacy-knobs" not in store
