"""Durability benchmark: journaled-ingest overhead (DESIGN.md §15).

- **Exactness** (`test_journaled_ingest_matches_unjournaled_exactly`):
  journaling never changes an estimate.
- **Overhead** (`test_journaled_ingest_overhead`): replaying a
  paper-scale campaign through a journaled store costs <= 1.5x the
  journal-off store.  The journal adds one compact-JSON frame + fsync
  per batch; the estimator update dominates, so the gate has headroom
  on a healthy disk.  Excluded from shared-runner CI like the other
  wall-clock ratio gates (fsync latency on shared runners is noisy);
  run locally with::

      pytest benchmarks/test_durability_bench.py -k overhead -s

Recovery exactness, journaled refreshes included, is covered by
``tests/integration/test_crash_recovery.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.datasets import generate_qatar_living_like
from repro.streaming import CampaignStore, replay_batches

from benchmarks.conftest import BENCH_SEED

N_BATCHES = 10
SCALE = dict(n_tasks=240, n_workers=100, n_copiers=25, target_claims=4800)

#: The acceptance gate: journaled ingest <= this multiple of journal-off.
MAX_OVERHEAD = 1.5


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

