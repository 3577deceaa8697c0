"""Kill -9 a live journaled server mid-stream and prove recovery is exact.

The end-to-end durability smoke (DESIGN.md §15), runnable locally and
in CI::

    PYTHONPATH=src python scripts/crash_recovery_smoke.py

What it does:

1. starts ``repro serve --journal-dir`` and replays a seeded campaign
   through the retrying :class:`~repro.streaming.client.StreamingClient`
   end to end — the **uninterrupted reference**; the server is then
   stopped with SIGTERM and must exit 0 (graceful shutdown);
2. starts a second server on a fresh journal directory, streams the
   first half of the same campaign, and ``kill -9``'s the process —
   no flush, no goodbye;
3. restarts the server over the surviving journal directory, waits for
   ``/healthz`` to answer (the server replays every journal before it
   binds, so until then connections are refused), re-sends the unacked
   batch (same sequence number) and the rest of the stream;
4. asserts the recovered campaign's truths, confidences, and worker
   accuracies are **byte-identical** (as canonical JSON) to the
   uninterrupted reference.

Exit code 0 = the durability contract held.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets import generate_qatar_living_like  # noqa: E402
from repro.streaming import StreamingClient, replay_batches  # noqa: E402

SEED = 1337
N_BATCHES = 8
CAMPAIGN = "smoke"
SCALE = dict(n_tasks=60, n_workers=30, n_copiers=7, target_claims=900)


class Server:
    """One ``repro serve`` child process bound to an ephemeral port."""

    def __init__(self, journal_dir: Path):
        self.journal_dir = journal_dir
        self.process: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> "Server":
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--quiet",
                "--journal-dir", str(self.journal_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line and self.process.poll() is not None:
                raise SystemExit("server died before announcing its port")
            match = re.search(r"repro streaming service on (http://\S+)", line)
            if match:
                self.url = match.group(1)
                return self
        raise SystemExit("server never announced its port")

    def sigkill(self) -> None:
        self.process.kill()  # SIGKILL: no flush, no handlers, no mercy
        self.process.wait()

    def sigterm_and_expect_clean_exit(self) -> None:
        self.process.send_signal(signal.SIGTERM)
        code = self.process.wait(timeout=30)
        assert code == 0, f"graceful shutdown exited {code}, expected 0"


def canonical_state(client: StreamingClient) -> str:
    """The campaign estimate surface as canonical JSON text."""
    truths = client.truths(CAMPAIGN)
    workers = client.request(
        "GET", f"/campaigns/{CAMPAIGN}/workers"
    )
    return json.dumps(
        {"truths": truths, "workers": workers}, sort_keys=True,
        separators=(",", ":"),
    )


def stream(client: StreamingClient, batches, start_seq: int = 1) -> None:
    for seq in range(start_seq, len(batches) + 1):
        client.ingest(CAMPAIGN, batches[seq - 1], seq=seq)


def main() -> int:
    dataset = generate_qatar_living_like(seed=SEED, **SCALE)
    batches = replay_batches(dataset, N_BATCHES)
    root = Path(tempfile.mkdtemp(prefix="crash-smoke-"))

    # -- 1. uninterrupted reference + graceful shutdown ------------------
    reference_server = Server(root / "wal-reference").start()
    client = StreamingClient(reference_server.url, seed=SEED)
    client.wait_ready()
    client.create_campaign(CAMPAIGN, refresh_every=2)
    stream(client, batches)
    reference = canonical_state(client)
    reference_server.sigterm_and_expect_clean_exit()
    print(f"reference run ok ({len(batches)} batches, graceful exit 0)")

    # -- 2. the crash run ------------------------------------------------
    crash_wal = root / "wal-crash"
    victim = Server(crash_wal).start()
    client = StreamingClient(victim.url, seed=SEED)
    client.wait_ready()
    client.create_campaign(CAMPAIGN, refresh_every=2)
    half = len(batches) // 2
    stream(client, batches[:half])
    victim.sigkill()
    print(f"killed -9 after {half}/{len(batches)} acknowledged batches")

    # -- 3. restart over the same journals, finish the stream ------------
    revived = Server(crash_wal).start()
    client = StreamingClient(revived.url, seed=SEED, retries=8)
    health = client.wait_ready()
    assert health.get("journaled"), health
    # The retrying client's contract: re-send the last seq (the server
    # deduplicates if the ack, not the append, was what got lost), then
    # the rest of the stream.
    replayed = client.snapshot(CAMPAIGN)
    assert replayed["applied_seq"] == half, replayed
    duplicate = client.ingest(CAMPAIGN, batches[half - 1], seq=half)
    assert duplicate.get("duplicate"), (
        f"re-sent seq {half} was applied twice: {duplicate}"
    )
    stream(client, batches, start_seq=half + 1)
    recovered = canonical_state(client)
    revived.sigterm_and_expect_clean_exit()

    # -- 4. the verdict ---------------------------------------------------
    assert recovered == reference, (
        "recovered state diverged from the uninterrupted reference:\n"
        f"  reference: {reference[:200]}...\n"
        f"  recovered: {recovered[:200]}..."
    )
    print(
        f"recovered state byte-identical to the uninterrupted run "
        f"({len(reference)} bytes of canonical JSON)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
