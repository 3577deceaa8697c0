"""The run ledger: a content-addressed store of finished work.

:class:`RunLedger` persists the three artifact kinds the experiment
stack produces, each under the fingerprint of the declarative
description of the work that made it (:mod:`repro.artifacts.fingerprint`):

- ``rows`` — one per-instance metric row of :func:`~repro.simulation.
  runner.run_instances`, keyed by ``(experiment id, config payload,
  instance index)``.  The instance *count* is deliberately excluded
  from the key: instance seeds derive from ``SeedSequence(base_seed)
  .spawn(k)``, so instance ``k`` computes the same row whether it runs
  in a 10-instance or a 100-instance sweep — raising ``--instances``
  reuses the existing prefix and computes only the delta.
- ``points`` — one evaluated sweep point of :func:`~repro.simulation.
  sweep.sweep_series`, keyed by ``(experiment id, config payload, x)``,
  so an interrupted sweep resumes at the first unevaluated grid point.
- ``results`` — a finished :class:`~repro.simulation.sweep.
  ExperimentResult`, keyed by the full configuration including the
  instance count; a hit short-circuits the whole run.

Storage is one JSON file per entry under ``<root>/<kind>/<fp[:2]>/
<fp>.json`` (sharded so no directory grows unbounded), written
atomically (temp file + ``os.replace``) so concurrent writers — e.g.
two experiment processes sharing a store — can only ever publish whole
entries.  JSON round-trips floats exactly (shortest-``repr`` encoding),
which is what lets the differential suite pin cache-hit runs
bit-identical to cold ones.

The default root is ``$REPRO_STORE`` or ``~/.cache/repro``; every CLI
entry point takes ``--store DIR`` to override it.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..errors import ConfigurationError, ReproError
from .fingerprint import SCHEMA_VERSION, canonical, fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep uses us)
    from ..simulation.sweep import ExperimentResult

__all__ = [
    "LedgerEntry",
    "LedgerError",
    "LedgerStats",
    "RunKey",
    "RunLedger",
    "cached_result",
    "default_store_path",
]

#: Artifact namespaces, in display order.
KINDS = ("rows", "points", "results")


class LedgerError(ReproError, RuntimeError):
    """A ledger operation failed (unknown fingerprint, ambiguous prefix)."""


def default_store_path() -> Path:
    """``$REPRO_STORE`` when set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_STORE")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


@dataclass(frozen=True)
class RunKey:
    """The declarative identity of one unit of work.

    ``payload`` is the runner's *declared* fingerprint input — resolved
    scale preset, dataclass configs, grids, root seed — never ad-hoc
    kwargs: whatever is absent from the payload cannot invalidate the
    cache, so runners must declare everything their computation reads.
    """

    experiment_id: str
    payload: Mapping[str, Any]

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ConfigurationError("RunKey.experiment_id must be non-empty")


def row_fingerprint(key: RunKey, instance: int) -> str:
    """The content fingerprint of one instance row of ``key``.

    Module-level so non-ledger consumers (the trace writer joins trace
    events to provenance rows by exactly these digests, DESIGN.md §13)
    share one definition with :class:`RunLedger`.
    """
    return fingerprint(
        {
            "kind": "row",
            "experiment_id": key.experiment_id,
            "config": canonical(dict(key.payload)),
            "instance": int(instance),
        }
    )


def point_fingerprint(key: RunKey, x: float) -> str:
    """The content fingerprint of one sweep point of ``key``."""
    return fingerprint(
        {
            "kind": "point",
            "experiment_id": key.experiment_id,
            "config": canonical(dict(key.payload)),
            "x": x,
        }
    )


def result_fingerprint(key: RunKey) -> str:
    """The content fingerprint of the finished result of ``key``."""
    return fingerprint(
        {
            "kind": "result",
            "experiment_id": key.experiment_id,
            "config": canonical(dict(key.payload)),
        }
    )


@dataclass
class LedgerStats:
    """Per-process cache counters (reset with :meth:`RunLedger.reset_stats`)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.writes} writes"


@dataclass(frozen=True)
class LedgerEntry:
    """Metadata of one stored artifact (for ``repro ledger list``)."""

    kind: str
    fingerprint: str
    experiment_id: str
    detail: str
    size_bytes: int
    modified_at: float
    path: Path


class RunLedger:
    """Content-addressed, on-disk store of finished experiment work."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_store_path()
        self.stats = LedgerStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLedger(root={str(self.root)!r})"

    def reset_stats(self) -> None:
        self.stats = LedgerStats()

    # -- fingerprints ----------------------------------------------------

    def row_fingerprint(self, key: RunKey, instance: int) -> str:
        return row_fingerprint(key, instance)

    def point_fingerprint(self, key: RunKey, x: float) -> str:
        return point_fingerprint(key, x)

    def result_fingerprint(self, key: RunKey) -> str:
        return result_fingerprint(key)

    # -- rows ------------------------------------------------------------

    def get_row(self, key: RunKey, instance: int) -> dict[str, float] | None:
        """The cached metric row of one instance, or ``None``."""
        entry = self._read("rows", self.row_fingerprint(key, instance))
        return None if entry is None else dict(entry["body"])

    def put_row(self, key: RunKey, instance: int, row: Mapping[str, float]) -> str:
        fp = self.row_fingerprint(key, instance)
        # Coerce values through float() so numpy scalars (a legal
        # MetricFn output) serialize instead of crashing json.dumps —
        # the cache path must accept everything the plain path does.
        self._write(
            "rows",
            fp,
            key,
            body={name: float(v) for name, v in row.items()},
            detail=f"instance {int(instance)}",
        )
        return fp

    # -- sweep points ----------------------------------------------------

    def get_point(self, key: RunKey, x: float) -> dict[str, float] | None:
        """The cached series values of one sweep point, or ``None``."""
        entry = self._read("points", self.point_fingerprint(key, x))
        return None if entry is None else dict(entry["body"])

    def put_point(self, key: RunKey, x: float, point: Mapping[str, float]) -> str:
        fp = self.point_fingerprint(key, x)
        self._write(
            "points",
            fp,
            key,
            body={name: float(v) for name, v in point.items()},
            detail=f"x={x:g}",
        )
        return fp

    # -- whole results ---------------------------------------------------

    def get_result(self, key: RunKey) -> "ExperimentResult | None":
        """A finished experiment result, reconstructed, or ``None``."""
        entry = self._read("results", self.result_fingerprint(key))
        if entry is None:
            return None
        from ..simulation.sweep import ExperimentResult

        return ExperimentResult.from_payload(entry["body"])

    def put_result(self, key: RunKey, result: "ExperimentResult") -> str:
        fp = self.result_fingerprint(key)
        self._write(
            "results", fp, key, body=result.to_payload(), detail="result"
        )
        return fp

    # -- maintenance -----------------------------------------------------

    def entries(self, kind: str | None = None) -> list[LedgerEntry]:
        """All stored artifacts, newest first."""
        kinds = KINDS if kind is None else (self._check_kind(kind),)
        found: list[LedgerEntry] = []
        for k in kinds:
            base = self.root / k
            if not base.is_dir():
                continue
            for path in sorted(base.glob("*/*.json")):
                try:
                    payload = json.loads(path.read_text())
                    stat = path.stat()
                except (OSError, json.JSONDecodeError):
                    continue
                found.append(
                    LedgerEntry(
                        kind=k,
                        fingerprint=payload.get("fingerprint", path.stem),
                        experiment_id=str(payload.get("experiment_id", "?")),
                        detail=str(payload.get("detail", "")),
                        size_bytes=stat.st_size,
                        modified_at=stat.st_mtime,
                        path=path,
                    )
                )
        found.sort(key=lambda e: e.modified_at, reverse=True)
        return found

    def show(self, prefix: str) -> dict:
        """The full stored payload of the entry matching ``prefix``.

        Resolution uses the sharded layout directly — a >= 2 character
        prefix names its shard, shorter ones scan only matching shard
        directories — so only the matched file is read, never the
        whole store.
        """
        if not prefix:
            raise LedgerError("fingerprint prefix must be non-empty")
        matches: list[Path] = []
        for kind in KINDS:
            base = self.root / kind
            if not base.is_dir():
                continue
            if len(prefix) >= 2:
                shards = [base / prefix[:2]]
            else:
                shards = sorted(
                    p
                    for p in base.iterdir()
                    if p.is_dir() and p.name.startswith(prefix)
                )
            for shard in shards:
                matches.extend(sorted(shard.glob(f"{prefix}*.json")))
        if not matches:
            raise LedgerError(
                f"no ledger entry matches fingerprint prefix {prefix!r} "
                f"under {self.root}"
            )
        if len(matches) > 1:
            shown = ", ".join(path.stem[:12] for path in matches[:5])
            raise LedgerError(
                f"fingerprint prefix {prefix!r} is ambiguous "
                f"({len(matches)} matches: {shown}...)"
            )
        return json.loads(matches[0].read_text())

    def gc(
        self, *, older_than_days: float | None = None, kind: str | None = None
    ) -> tuple[int, int]:
        """Delete entries; returns ``(files removed, bytes freed)``.

        ``older_than_days=None`` removes everything (of ``kind``, when
        given); otherwise only entries whose file modification time is
        older than the cutoff.  Orphaned temp files (a writer killed
        between ``mkstemp`` and ``os.replace``) are swept under the
        same age rule, and empty shard directories are pruned.
        """
        cutoff = (
            None
            if older_than_days is None
            else time.time() - older_than_days * 86400.0
        )
        removed = 0
        freed = 0
        kinds = KINDS if kind is None else (self._check_kind(kind),)
        doomed = [(e.path, e.modified_at, e.size_bytes) for e in self.entries(kind)]
        for k in kinds:
            base = self.root / k
            if base.is_dir():
                for tmp in base.glob("*/*.tmp"):
                    try:
                        stat = tmp.stat()
                    except OSError:
                        continue
                    doomed.append((tmp, stat.st_mtime, stat.st_size))
        shards = set()
        for path, modified_at, size_bytes in doomed:
            if cutoff is not None and modified_at >= cutoff:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size_bytes
            shards.add(path.parent)
        for shard in shards:
            try:
                shard.rmdir()
            except OSError:
                pass
        return removed, freed

    def describe(self) -> dict:
        """Counts and sizes per kind (for the CLI footer)."""
        entries = self.entries()
        per_kind = {k: 0 for k in KINDS}
        total = 0
        for entry in entries:
            per_kind[entry.kind] += 1
            total += entry.size_bytes
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": total,
            "per_kind": per_kind,
        }

    # -- storage ---------------------------------------------------------

    @staticmethod
    def _check_kind(kind: str) -> str:
        if kind not in KINDS:
            raise ConfigurationError(
                f"unknown ledger kind {kind!r}; expected one of {KINDS}"
            )
        return kind

    def _path(self, kind: str, fp: str) -> Path:
        return self.root / kind / fp[:2] / f"{fp}.json"

    def _read(self, kind: str, fp: str) -> dict | None:
        path = self._path(kind, fp)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            # A torn or unreadable entry is a miss, never an error: the
            # caller recomputes and the rewrite heals the store.
            self.stats.misses += 1
            return None
        if payload.get("schema") != SCHEMA_VERSION:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def _write(
        self, kind: str, fp: str, key: RunKey, *, body: Any, detail: str
    ) -> None:
        payload = {
            "schema": SCHEMA_VERSION,
            "fingerprint": fp,
            "kind": kind,
            "experiment_id": key.experiment_id,
            "detail": detail,
            "key": canonical(dict(key.payload)),
            "created_at": time.time(),
            "body": body,
        }
        path = self._path(self._check_kind(kind), fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        # No sort_keys: insertion order IS part of the stored value —
        # a replayed result must render its meta (and nested dicts) in
        # the same order a cold run would, and JSON round-trips object
        # order faithfully.  The payload builders are deterministic, so
        # file bytes are reproducible regardless.
        text = json.dumps(payload)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{fp[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1


def cached_result(
    ledger: RunLedger | None,
    key: RunKey | None,
    build: "callable",
) -> "ExperimentResult":
    """The standard result-level caching wrapper every runner uses.

    With a ledger, a banked result for ``key`` short-circuits the whole
    build (including dataset generation); otherwise ``build()`` runs
    and its result is persisted.  Without a ledger this is just
    ``build()`` — runners never need two code paths.
    """
    if ledger is not None and key is not None:
        hit = ledger.get_result(key)
        if hit is not None:
            return hit
    result = build()
    if ledger is not None and key is not None:
        ledger.put_result(key, result)
    return result
