"""Write-ahead journal framing, grammar, and writer semantics (DESIGN.md §15).

These tests pin the durability layer's file-format contract in
isolation: self-verifying record framing, the torn-tail-vs-corruption
distinction, the record grammar (one create first, batch seqs strictly
increasing), the JSON config codec with its fingerprint verification,
and the writer's rollback-on-IO-error degradation.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import DateConfig
from repro.errors import ReproError
from repro.streaming.journal import (
    CampaignJournal,
    JournalCorruptError,
    JournalError,
    JournalWriteError,
    batch_from_record,
    batch_record,
    config_fingerprint,
    config_from_payload,
    config_to_payload,
    create_record,
    journal_path,
    list_journals,
    read_journal,
    refresh_record,
)
from repro.streaming.ingest import ClaimBatch
from repro.types import Task, WorkerProfile


def _tasks(n=2):
    return tuple(Task(task_id=f"t{i}", domain=("a", "b")) for i in range(n))


def _workers(n=2):
    return tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n))


def _batch(i=0):
    tasks = (Task(task_id=f"bt{i}", domain=("a", "b")),)
    workers = (WorkerProfile(worker_id=f"bw{i}"),)
    return ClaimBatch(
        claims={(f"bw{i}", f"bt{i}"): "a"}, tasks=tasks, workers=workers
    )


def _write(tmp_path, records):
    journal = CampaignJournal(tmp_path / "c.wal.jsonl")
    for record in records:
        journal.append(record)
    journal.close()
    return journal.path


def _create(**overrides):
    defaults = dict(
        config=DateConfig(),
        algorithm="DATE",
        refresh_every=0,
        created_at=123.0,
    )
    defaults.update(overrides)
    return create_record("c", **defaults)


class TestFraming:
    def test_round_trip(self, tmp_path):
        records = [_create(), batch_record(1, _batch(0)), refresh_record(1, "fp")]
        path = _write(tmp_path, records)
        scan = read_journal(path)
        assert not scan.torn
        assert list(scan.records) == records
        assert scan.valid_bytes == path.stat().st_size

    def test_each_line_is_a_self_verifying_envelope(self, tmp_path):
        path = _write(tmp_path, [_create()])
        line = path.read_bytes().splitlines()[0]
        envelope = json.loads(line)
        body = json.dumps(envelope["record"], separators=(",", ":"))
        assert envelope["len"] == len(body)
        assert len(envelope["sha"]) == 16

    def test_unterminated_tail_is_torn_not_corrupt(self, tmp_path):
        path = _write(tmp_path, [_create(), batch_record(1, _batch())])
        data = path.read_bytes()
        path.write_bytes(data[:-4])  # cut mid-record, newline gone
        scan = read_journal(path)
        assert scan.torn
        assert len(scan.records) == 1
        assert scan.records[0]["kind"] == "create"

    def test_flipped_byte_in_final_line_is_torn(self, tmp_path):
        path = _write(tmp_path, [_create(), batch_record(1, _batch())])
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF  # damage inside the last record's payload
        path.write_bytes(bytes(data))
        scan = read_journal(path)
        assert scan.torn
        assert len(scan.records) == 1

    def test_damage_before_the_end_is_corruption(self, tmp_path):
        path = _write(
            tmp_path, [_create(), batch_record(1, _batch(0)), batch_record(2, _batch(1))]
        )
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"len":1,"sha":"00","record":{}}\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorruptError):
            read_journal(path)

    def test_truncating_to_valid_bytes_heals_a_torn_file(self, tmp_path):
        path = _write(tmp_path, [_create(), batch_record(1, _batch())])
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        scan = read_journal(path)
        journal = CampaignJournal(path)
        journal.truncate_to(scan.valid_bytes)
        journal.append(batch_record(1, _batch()))
        journal.close()
        healed = read_journal(path)
        assert not healed.torn
        assert len(healed.records) == 2


class TestGrammar:
    def test_first_record_must_be_create(self, tmp_path):
        path = _write(tmp_path, [batch_record(1, _batch())])
        with pytest.raises(JournalCorruptError, match="expected 'create'"):
            read_journal(path)

    def test_duplicate_create_is_corrupt(self, tmp_path):
        path = _write(tmp_path, [_create(), _create()])
        with pytest.raises(JournalCorruptError, match="duplicate create"):
            read_journal(path)

    def test_batch_seqs_must_strictly_increase(self, tmp_path):
        path = _write(
            tmp_path,
            [_create(), batch_record(2, _batch(0)), batch_record(2, _batch(1))],
        )
        with pytest.raises(JournalCorruptError, match="does not increase"):
            read_journal(path)

    def test_seq_gaps_are_allowed(self, tmp_path):
        # Gaps arise legitimately: a client may crash between assigning
        # a seq and sending it; the next batch just moves on.
        path = _write(
            tmp_path, [_create(), batch_record(1, _batch(0)), batch_record(5, _batch(1))]
        )
        assert len(read_journal(path).records) == 3

    def test_unknown_kind_is_corrupt(self, tmp_path):
        path = _write(tmp_path, [_create(), {"kind": "mystery"}])
        with pytest.raises(JournalCorruptError, match="unknown record kind"):
            read_journal(path)


class TestConfigCodec:
    def test_round_trip_preserves_fingerprint(self):
        config = DateConfig(
            copy_prob_r=0.7,
            accuracy_clamp=(0.05, 0.95),
            max_iterations=33,
        )
        rebuilt = config_from_payload(config_to_payload(config))
        assert config_to_payload(rebuilt) == config_to_payload(config)
        assert config_fingerprint(rebuilt) == config_fingerprint(config)

    def test_unknown_field_is_corrupt(self):
        payload = config_to_payload(DateConfig())
        payload["not_a_field"] = 1
        with pytest.raises(JournalCorruptError, match="unknown config field"):
            config_from_payload(payload)

    def test_non_default_objects_shift_the_fingerprint(self):
        # false_values/similarity are not in the JSON payload; the
        # fingerprint is what catches a config that cannot round-trip.
        from repro.core.falsedist import ZipfFalseValues

        config = DateConfig(false_values=ZipfFalseValues(exponent=1.7))
        rebuilt = config_from_payload(config_to_payload(config))
        assert config_fingerprint(rebuilt) != config_fingerprint(config)


class TestRecords:
    def test_batch_record_keeps_arrival_order(self):
        claims = {("w2", "t"): "a", ("w1", "t"): "b", ("w3", "t"): "a"}
        batch = ClaimBatch(
            claims=claims,
            tasks=(Task(task_id="t", domain=("a", "b")),),
            workers=_workers(4)[:3]
            + (WorkerProfile(worker_id="w3"),),
        )
        record = batch_record(4, batch)
        replayed = batch_from_record(record)
        assert list(replayed.claims) == list(claims)
        assert record["seq"] == 4

    def test_create_record_carries_seed_and_truth(self):
        tasks = (Task(task_id="t0", domain=("a", "b"), truth="a"),)
        record = _create(seed_tasks=tasks, seed_workers=_workers(1))
        assert record["seed"]["tasks"][0]["truth"] == "a"
        assert record["config_fp"] == config_fingerprint(DateConfig())

    def test_create_record_without_seed_has_no_seed_key(self):
        assert "seed" not in _create()


class TestFileNaming:
    def test_journal_path_quotes_awkward_ids(self, tmp_path):
        path = journal_path(tmp_path, "a/b c%d")
        assert "/" not in path.name.replace(".wal.jsonl", "")
        path.write_bytes(b"")
        [(campaign_id, found)] = list_journals(tmp_path)
        assert campaign_id == "a/b c%d"
        assert found == path

    def test_list_journals_on_missing_dir_is_empty(self, tmp_path):
        assert list_journals(tmp_path / "nope") == []


class TestWriter:
    def test_append_is_immediately_durable(self, tmp_path):
        journal = CampaignJournal(tmp_path / "c.wal.jsonl")
        journal.append(_create())
        # Read back *without* closing: the bytes must already be on disk.
        scan = read_journal(journal.path)
        assert len(scan.records) == 1
        journal.close()

    def test_failed_journal_refuses_appends(self, tmp_path):
        journal = CampaignJournal(tmp_path / "c.wal.jsonl")
        journal._failed = True
        with pytest.raises(JournalWriteError, match="refusing to append"):
            journal.append(_create())

    def test_delete_removes_the_file(self, tmp_path):
        journal = CampaignJournal(tmp_path / "c.wal.jsonl")
        journal.append(_create())
        journal.delete()
        assert not journal.path.exists()
        journal.delete()  # idempotent

    def test_journal_errors_are_repro_errors(self):
        assert issubclass(JournalError, ReproError)
        assert issubclass(JournalCorruptError, JournalError)
        assert issubclass(JournalWriteError, JournalError)
