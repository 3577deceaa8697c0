"""Provenance-keyed persistence of finished experiment work.

The artifacts layer turns the repo's determinism contract — every
per-instance result is a pure, bit-identical function of ``(experiment
id, config, root seed, instance index)`` — into a content-addressed
cache (DESIGN.md §11):

- :mod:`~repro.artifacts.fingerprint` lowers declarative work
  descriptions into canonical JSON and hashes them (SHA-256 + schema
  salt);
- :mod:`~repro.artifacts.ledger` persists instance rows, sweep points
  and finished results under those fingerprints, making sweeps
  resumable at instance granularity and repeated runs O(delta) instead
  of O(full recompute).
"""

from .fingerprint import (
    SCHEMA_VERSION,
    FingerprintError,
    canonical,
    canonical_json,
    fingerprint,
)
from .ledger import (
    LedgerEntry,
    LedgerError,
    LedgerStats,
    RunKey,
    RunLedger,
    cached_result,
    default_store_path,
)

__all__ = [
    "SCHEMA_VERSION",
    "FingerprintError",
    "LedgerEntry",
    "LedgerError",
    "LedgerStats",
    "RunKey",
    "RunLedger",
    "cached_result",
    "canonical",
    "canonical_json",
    "default_store_path",
    "fingerprint",
]
