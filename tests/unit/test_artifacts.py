"""Unit tests for the artifacts layer (fingerprints + run ledger)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.artifacts import (
    FingerprintError,
    LedgerError,
    RunKey,
    RunLedger,
    cached_result,
    canonical,
    canonical_json,
    default_store_path,
    fingerprint,
)
from repro.core.config import DateConfig
from repro.core.falsedist import (
    EmpiricalFalseValues,
    UniformFalseValues,
    ZipfFalseValues,
)
from repro.errors import ConfigurationError
from repro.simulation.config import ExperimentConfig
from repro.simulation.sweep import ExperimentResult


class TestCanonical:
    def test_scalars_pass_through(self):
        assert canonical(None) is None
        assert canonical(True) is True
        assert canonical(3) == 3
        assert canonical(0.25) == 0.25
        assert canonical("x") == "x"

    def test_numpy_scalars_lower(self):
        assert canonical(np.int64(7)) == 7
        assert canonical(np.float64(0.5)) == 0.5
        assert canonical(np.bool_(True)) is True
        assert canonical(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_dataclass_includes_class_name(self):
        encoded = canonical(DateConfig())
        assert encoded["__dataclass__"].endswith("DateConfig")
        assert encoded["fields"]["copy_prob_r"] == 0.4

    def test_tuple_and_list_alias(self):
        assert canonical((1, 2)) == canonical([1, 2])

    def test_structured_dict_keys(self):
        claims = {("w2", "t1"): "b", ("w1", "t1"): "a"}
        encoded = canonical(claims)
        assert encoded == {"__pairs__": [[["w1", "t1"], "a"], [["w2", "t1"], "b"]]}

    def test_set_is_order_independent(self):
        assert canonical({3, 1, 2}) == canonical({2, 3, 1})

    def test_callable_by_qualified_name(self):
        encoded = canonical(len)
        assert encoded == {"__callable__": "builtins.len"}

    def test_fingerprint_hook_objects(self):
        assert canonical(UniformFalseValues())["state"] == {}
        assert canonical(ZipfFalseValues(1.5))["state"] == {"exponent": 1.5}
        assert canonical(EmpiricalFalseValues(2.0))["state"] == {"smoothing": 2.0}
        # Two distributions with identical state must not collide.
        assert canonical(UniformFalseValues()) != canonical(ZipfFalseValues())

    def test_unknown_object_rejected(self):
        class Opaque:
            __call__ = None  # not callable, no hook

        with pytest.raises(FingerprintError):
            canonical(Opaque())

    def test_canonical_json_sorted_and_compact(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text == '{"a":2,"b":1}'


class TestFingerprint:
    def test_stable_across_key_order(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert fingerprint({"seed": 1}) != fingerprint({"seed": 2})

    def test_sensitive_to_config_changes(self):
        base = ExperimentConfig(n_tasks=10, n_workers=5, n_copiers=1, target_claims=30)
        changed = base.evolve(date=base.date.evolve(copy_prob_r=0.7))
        assert fingerprint(base) != fingerprint(changed)

    def test_schema_salt_in_digest(self, monkeypatch):
        # Import the module explicitly: the package re-exports the
        # `fingerprint` *function* under the same dotted name.
        import importlib

        fingerprint_module = importlib.import_module(
            "repro.artifacts.fingerprint"
        )
        before = fingerprint({"x": 1})
        monkeypatch.setattr(fingerprint_module, "SCHEMA_VERSION", 999)
        assert fingerprint({"x": 1}) != before


@pytest.fixture
def ledger(tmp_path) -> RunLedger:
    return RunLedger(tmp_path / "store")


@pytest.fixture
def key() -> RunKey:
    return RunKey("demo", {"seed": 42, "grid": (0.1, 0.2)})


class TestRunLedger:
    def test_default_store_path_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        assert default_store_path() == tmp_path / "env-store"
        assert RunLedger().root == tmp_path / "env-store"

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigurationError):
            RunKey("", {})

    def test_row_round_trip_exact_floats(self, ledger, key):
        row = {"precision": 0.1 + 0.2, "tiny": 5e-324}
        assert ledger.get_row(key, 0) is None
        ledger.put_row(key, 0, row)
        back = ledger.get_row(key, 0)
        assert back == row
        assert all(back[k] == v for k, v in row.items())

    def test_numpy_metric_values_serialize(self, ledger, key):
        # MetricFn may legally return numpy scalars; the cache path
        # must accept them like the plain path does.
        ledger.put_row(key, 0, {"m": np.float64(0.9)})
        assert ledger.get_row(key, 0) == {"m": 0.9}
        ledger.put_point(key, 0.1, {"s": np.float64(0.5)})
        assert ledger.get_point(key, 0.1) == {"s": 0.5}

    def test_rows_keyed_by_instance(self, ledger, key):
        ledger.put_row(key, 0, {"m": 1.0})
        assert ledger.get_row(key, 1) is None

    def test_rows_keyed_by_payload(self, ledger, key):
        ledger.put_row(key, 0, {"m": 1.0})
        other = RunKey("demo", {"seed": 43, "grid": (0.1, 0.2)})
        assert ledger.get_row(other, 0) is None

    def test_point_round_trip(self, ledger, key):
        ledger.put_point(key, 0.3, {"DATE": 0.9})
        assert ledger.get_point(key, 0.3) == {"DATE": 0.9}
        assert ledger.get_point(key, 0.4) is None

    def test_result_round_trip(self, ledger, key):
        result = ExperimentResult(
            experiment_id="demo",
            title="t",
            x_label="x",
            y_label="y",
            x_values=(1.0, 2.0),
            series={"s": (0.5, 0.25)},
            meta={"instances": 2},
        )
        assert ledger.get_result(key) is None
        ledger.put_result(key, result)
        assert ledger.get_result(key) == result

    def test_stats_count_hits_misses_writes(self, ledger, key):
        ledger.get_row(key, 0)
        ledger.put_row(key, 0, {"m": 1.0})
        ledger.get_row(key, 0)
        stats = ledger.stats
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert stats.hit_rate == 0.5
        ledger.reset_stats()
        assert ledger.stats.lookups == 0

    def test_torn_entry_is_a_miss(self, ledger, key):
        ledger.put_row(key, 0, {"m": 1.0})
        path = ledger._path("rows", ledger.row_fingerprint(key, 0))
        path.write_text("{not json")
        assert ledger.get_row(key, 0) is None

    def test_stale_schema_is_a_miss(self, ledger, key):
        ledger.put_row(key, 0, {"m": 1.0})
        path = ledger._path("rows", ledger.row_fingerprint(key, 0))
        payload = json.loads(path.read_text())
        payload["schema"] = -1
        path.write_text(json.dumps(payload))
        assert ledger.get_row(key, 0) is None

    def test_entries_and_describe(self, ledger, key):
        ledger.put_row(key, 0, {"m": 1.0})
        ledger.put_point(key, 0.5, {"s": 2.0})
        entries = ledger.entries()
        assert {e.kind for e in entries} == {"rows", "points"}
        assert all(e.experiment_id == "demo" for e in entries)
        assert ledger.describe()["per_kind"]["rows"] == 1
        assert ledger.entries("rows")[0].detail == "instance 0"

    def test_show_by_prefix(self, ledger, key):
        fp = ledger.put_row(key, 0, {"m": 1.0})
        payload = ledger.show(fp[:10])
        assert payload["fingerprint"] == fp
        assert payload["body"] == {"m": 1.0}
        with pytest.raises(LedgerError):
            ledger.show("ffffffffff")
        with pytest.raises(LedgerError):
            ledger.show("")

    def test_show_ambiguous_prefix(self, ledger, key):
        ledger.put_row(key, 0, {"m": 1.0})
        ledger.put_row(key, 1, {"m": 2.0})
        fingerprints = sorted(e.fingerprint for e in ledger.entries())
        shared = ""
        for ca, cb in zip(*fingerprints):
            if ca != cb:
                break
            shared += ca
        if shared:  # two hashes rarely share a prefix; only then test it
            with pytest.raises(LedgerError, match="ambiguous"):
                ledger.show(shared)

    def test_gc_all_and_by_age(self, ledger, key):
        ledger.put_row(key, 0, {"m": 1.0})
        ledger.put_row(key, 1, {"m": 2.0})
        removed, freed = ledger.gc(older_than_days=1.0)
        assert removed == 0 and freed == 0  # everything is fresh
        removed, freed = ledger.gc()
        assert removed == 2 and freed > 0
        assert ledger.entries() == []

    def test_gc_sweeps_orphaned_temp_files(self, ledger, key):
        ledger.put_row(key, 0, {"m": 1.0})
        shard = ledger._path("rows", ledger.row_fingerprint(key, 0)).parent
        orphan = shard / ".deadbeef-orphan.tmp"
        orphan.write_text("torn write")
        removed, freed = ledger.gc()
        assert removed == 2 and freed > 0
        assert not orphan.exists()
        assert not shard.exists()  # emptied shard pruned

    def test_result_meta_order_survives_round_trip(self, ledger, key):
        # Terminal rendering of a warm run must match the cold run, so
        # meta insertion order (and nested dict order) is part of the
        # stored value.
        result = ExperimentResult(
            experiment_id="demo",
            title="t",
            x_label="x",
            y_label="y",
            x_values=(1.0,),
            series={"s": (2.0,)},
            meta={"zeta": 1, "alpha": {"z": 1, "a": 2}, "mid": 3},
        )
        ledger.put_result(key, result)
        replayed = ledger.get_result(key)
        assert list(replayed.meta) == ["zeta", "alpha", "mid"]
        assert list(replayed.meta["alpha"]) == ["z", "a"]

    def test_gc_by_kind(self, ledger, key):
        ledger.put_row(key, 0, {"m": 1.0})
        ledger.put_point(key, 0.5, {"s": 2.0})
        removed, _ = ledger.gc(kind="points")
        assert removed == 1
        assert [e.kind for e in ledger.entries()] == ["rows"]

    def test_leftover_snapshots_directory_is_ignored(self, ledger, key):
        # Stores written before refresh snapshots were removed may hold
        # a snapshots/ directory; nothing reads, counts or deletes it.
        ledger.put_row(key, 0, {"m": 1.0})
        leftover = ledger.root / "snapshots" / "ab" / "abcd.json"
        leftover.parent.mkdir(parents=True)
        leftover.write_text('{"fingerprint": "abcd", "body": {}}')
        assert [e.kind for e in ledger.entries()] == ["rows"]
        assert "snapshots" not in ledger.describe()["per_kind"]
        with pytest.raises(ConfigurationError, match="unknown ledger kind"):
            ledger.entries("snapshots")
        removed, _ = ledger.gc()
        assert removed == 1  # the row only
        assert leftover.exists()

class TestCachedResult:
    def _result(self) -> ExperimentResult:
        return ExperimentResult(
            experiment_id="demo",
            title="t",
            x_label="x",
            y_label="y",
            x_values=(1.0,),
            series={"s": (2.0,)},
        )

    def test_without_ledger_just_builds(self):
        calls = []

        def build():
            calls.append(1)
            return self._result()

        assert cached_result(None, None, build) == self._result()
        assert calls == [1]

    def test_hit_short_circuits_build(self, ledger, key):
        calls = []

        def build():
            calls.append(1)
            return self._result()

        first = cached_result(ledger, key, build)
        second = cached_result(ledger, key, build)
        assert first == second
        assert calls == [1]
