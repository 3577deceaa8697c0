"""Durability benchmark: journaled-ingest overhead and recovery wall time.

Two acceptance gates for the write-ahead journal (DESIGN.md §15):

- **Overhead** (`test_journaled_ingest_overhead`): replaying a
  paper-scale campaign through a journaled store costs <= 1.5x the
  journal-off store.  The journal adds one compact-JSON frame + fsync
  per batch; the estimator update dominates, so the gate has headroom
  on a healthy disk.  Excluded from shared-runner CI like the other
  wall-clock ratio gates (fsync latency on shared runners is noisy);
  run locally with::

      pytest benchmarks/test_durability_bench.py -k overhead -s

- **Recovery** (`test_recovery_snapshot_speedup` + the plain recovery
  timing): replaying the journal with a banked ledger refresh snapshot
  must beat the snapshot-less replay (the adopt path skips the full
  re-estimation), and both recoveries must land bit-identical to the
  live store.  The correctness half always runs; the ratio is a
  ``speedup``-named gate for quiet machines only.
"""

from __future__ import annotations

import time

import pytest

from repro.artifacts import RunLedger
from repro.datasets import generate_qatar_living_like
from repro.streaming import CampaignStore, replay_batches

from benchmarks.conftest import BENCH_SEED

N_BATCHES = 10
SCALE = dict(n_tasks=240, n_workers=100, n_copiers=25, target_claims=4800)

#: The acceptance gate: journaled ingest <= this multiple of journal-off.
MAX_OVERHEAD = 1.5
#: Alternating cold/warm recoveries per side; each side keeps its minimum.
RECOVERY_REPEATS = 3


@pytest.fixture(scope="module")
def stream_batches():
    dataset = generate_qatar_living_like(seed=BENCH_SEED, **SCALE)
    return replay_batches(dataset, N_BATCHES)


def _replay(store, batches):
    store.create("bench")
    start = time.perf_counter()
    for seq, batch in enumerate(batches, start=1):
        store.ingest("bench", batch, seq=seq)
    elapsed = time.perf_counter() - start
    return elapsed


def _state(store):
    return (
        store.truths("bench"),
        store.worker_accuracy("bench"),
    )


def test_journaled_ingest_matches_unjournaled_exactly(
    tmp_path_factory, stream_batches
):
    """Journaling must be invisible to the estimates (pure write path)."""
    plain = CampaignStore()
    _replay(plain, stream_batches)
    journaled = CampaignStore(
        journal_dir=tmp_path_factory.mktemp("wal-exact")
    )
    _replay(journaled, stream_batches)
    assert _state(journaled) == _state(plain)
    journaled.close()


def test_journaled_ingest_overhead(tmp_path_factory, stream_batches):
    """The gate: one fsync'd append per batch costs <= 1.5x journal-off."""
    # Warm both code paths once before timing.
    warm = CampaignStore(journal_dir=tmp_path_factory.mktemp("wal-warm"))
    _replay(warm, stream_batches)
    warm.close()

    plain_s = _replay(CampaignStore(), stream_batches)
    journaled = CampaignStore(journal_dir=tmp_path_factory.mktemp("wal-bench"))
    journaled_s = _replay(journaled, stream_batches)
    journaled.close()
    overhead = journaled_s / plain_s
    print(
        f"\njournal-off {plain_s * 1e3:.1f} ms, journaled "
        f"{journaled_s * 1e3:.1f} ms -> overhead {overhead:.3f}x "
        f"(gate <= {MAX_OVERHEAD}x)"
    )
    assert overhead <= MAX_OVERHEAD


def test_recovery_snapshot_speedup(tmp_path_factory, stream_batches):
    """Ledger-snapshot recovery beats recompute recovery, both exact."""
    wal = tmp_path_factory.mktemp("wal-recover")
    ledger_root = tmp_path_factory.mktemp("ledger")
    live = CampaignStore(journal_dir=wal, ledger=RunLedger(ledger_root))
    _replay(live, stream_batches)
    live.estimate("bench", refresh=True)  # journals intent + banks snapshot
    reference = _state(live)
    live.close()

    # Each side is the minimum of RECOVERY_REPEATS alternating runs, each
    # recovering into a fresh store: single shots are too noisy on a
    # small, shared box for the ordering assert below.
    cold_times, warm_times = [], []
    for _ in range(RECOVERY_REPEATS):
        # Cold recovery: no ledger, the refresh record recomputes.
        start = time.perf_counter()
        cold = CampaignStore(journal_dir=wal)
        cold_times.append(time.perf_counter() - start)
        assert cold.last_recovery[0]["snapshot_hits"] == 0
        assert _state(cold) == reference
        cold.close()

        # Warm recovery: the banked snapshot's fingerprint matches and is
        # adopted instead of recomputed.
        start = time.perf_counter()
        warm = CampaignStore(journal_dir=wal, ledger=RunLedger(ledger_root))
        warm_times.append(time.perf_counter() - start)
        assert warm.last_recovery[0]["snapshot_hits"] == 1
        assert _state(warm) == reference
        warm.close()

    cold_s, warm_s = min(cold_times), min(warm_times)
    print(
        f"\nrecovery (min of {RECOVERY_REPEATS}): recompute {cold_s * 1e3:.1f} ms, "
        f"snapshot-hit {warm_s * 1e3:.1f} ms -> {cold_s / warm_s:.2f}x"
    )
    assert warm_s < cold_s
