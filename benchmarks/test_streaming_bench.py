"""Streaming replay benchmark: incremental OnlineDATE vs cold re-runs.

Replays a qatar-living-like campaign in 10 claim batches — the
workload the streaming subsystem exists for — and gates the two
acceptance criteria of the online path:

- **Exactness** (`test_online_refresh_matches_cold_exactly`): after
  the final full refresh, the online estimate equals the cold batch
  run bit for bit — same truths, same iteration count, accuracies and
  reputations within 1e-9.
- **Speed** (`test_streaming_replay_speedup`): ingesting a batch
  incrementally (index extension + a vote under the last refresh's
  model) is >= 5x
  faster than the cold alternative of re-encoding and re-running
  ``DATE().run`` on the campaign accumulated so far, summed over the
  replay.  Excluded from shared-runner CI like the backend-speedup
  gate (wall-clock ratios need a quiet machine); run locally with::

      pytest benchmarks/test_streaming_bench.py -k speedup -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import DATE
from repro.datasets import generate_qatar_living_like
from repro.streaming import OnlineDATE, replay_batches

from benchmarks.conftest import BENCH_SEED

#: Replay shape: the paper-scale campaign split into 10 arrival waves.
N_BATCHES = 10
STREAM_SCALE = dict(n_tasks=400, n_workers=150, n_copiers=38, target_claims=8000)


@pytest.fixture(scope="module")
def stream_dataset():
    return generate_qatar_living_like(seed=BENCH_SEED, **STREAM_SCALE)


@pytest.fixture(scope="module")
def stream_batches(stream_dataset):
    batches = replay_batches(stream_dataset, N_BATCHES)
    assert sum(b.n_claims for b in batches) == stream_dataset.n_claims
    return batches


def test_online_refresh_matches_cold_exactly(stream_dataset, stream_batches):
    online = OnlineDATE()
    for batch in stream_batches:
        online.ingest(batch)
    final = online.refresh()
    cold = DATE().run(stream_dataset)
    assert final.truths == cold.truths
    assert final.iterations == cold.iterations
    np.testing.assert_allclose(
        final.accuracy_matrix, cold.accuracy_matrix, atol=1e-9, rtol=0
    )
    for worker_id, accuracy in cold.worker_accuracy.items():
        assert abs(final.worker_accuracy[worker_id] - accuracy) <= 1e-9
    assert final.precision() == cold.precision()


def test_streaming_replay_speedup(stream_dataset, stream_batches):
    """The acceptance gate: incremental ingest >= 5x cold re-runs."""
    online = OnlineDATE()
    online_total = 0.0
    cold_total = 0.0
    rows = []
    cold = None
    for batch in stream_batches:
        start = time.perf_counter()
        update = online.ingest(batch)
        online_ms = (time.perf_counter() - start) * 1e3
        accumulated = online.dataset
        start = time.perf_counter()
        cold = DATE().run(accumulated)
        cold_ms = (time.perf_counter() - start) * 1e3
        online_total += online_ms
        cold_total += cold_ms
        rows.append(
            f"batch {update.batch:2d}: +{update.new_claims:4d} claims, "
            f"{update.dirty_tasks:3d} dirty | online {online_ms:7.1f} ms, "
            f"cold {cold_ms:7.1f} ms ({cold_ms / online_ms:5.1f}x)"
        )
    final = online.refresh()
    speedup = cold_total / online_total
    print()
    print("\n".join(rows))
    print(
        f"replay totals: online {online_total:.1f} ms, cold {cold_total:.1f} ms, "
        f"speedup {speedup:.2f}x"
    )
    # Equal final quality: the refresh restores the cold answer exactly.
    assert final.truths == cold.truths
    assert final.precision() == cold.precision()
    assert speedup >= 5.0, (
        f"incremental ingestion only {speedup:.2f}x faster than cold re-runs"
    )
