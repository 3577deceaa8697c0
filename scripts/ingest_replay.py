"""Time the journaled ingest path in process, one ingest at a time.

Usage::

    PYTHONPATH=src python3 scripts/ingest_replay.py [--seed 1] [--repeats 3]
    PYTHONPATH=src python3 scripts/ingest_replay.py --digest

Replays the serve-journaled load without HTTP: ``StreamingApp.handle``
over a journaled :class:`~repro.streaming.campaign.CampaignStore` (in a
temporary directory, fsync on), with the metrics registry on as
``repro serve`` has it.  The inputs are perfbench's: paper-scale
campaigns 0-3 of ``--seed`` (300 tasks, 120 workers, 6000 claims),
each replayed as 120 JSON batches of about 50 claims, reading the
truths after every fourth ingest.

Each ingest's ``handle`` call is timed, and so are the layers under it:
the dirty-scope sub-run (``DATE.run``), ``DatasetIndex.extended``,
``DatasetIndex.restricted`` and the journal append.  The script also
times a cold ``DATE().run`` on a 2-claim, 1-task campaign, which
converges in one iteration: the fixed cost of any run.  It prints one JSON object of
medians in milliseconds.

``--digest`` instead prints a SHA-256 over every truths body a full
replay serves, read after every ingest: two trees that print the same
digest served the same truths and confidence, byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import tempfile
import time

import numpy as np

#: perfbench's paper-scale generator sizes and serve-journaled shape.
PAPER = dict(n_tasks=300, n_workers=120, n_copiers=30, target_claims=6000)
INPUTS, BATCHES, READ_EVERY = 4, 120, 4


def payloads(seed: int) -> list[list[dict]]:
    from repro.datasets import generate_qatar_living_like
    from repro.streaming import replay_batches
    from repro.streaming.ingest import batch_to_json

    out = []
    for k in range(INPUTS):
        dataset = generate_qatar_living_like(seed=np.random.default_rng([seed, k]), **PAPER)
        batches = [batch_to_json(b, include_truth=True) for b in replay_batches(dataset, BATCHES)]
        for seq, body in enumerate(batches, 1):
            body["seq"] = seq
        out.append(batches)
    return out


class Layers:
    """Per-call wall time of a few methods, wrapped on their classes."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def wrap(self, cls, attr: str, name: str) -> None:
        original = getattr(cls, attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

        setattr(cls, attr, timed)

    def take(self) -> dict[str, float]:
        taken, self.seconds = self.seconds, {}
        return taken


def replay(bodies, *, read_every: int, digest=None, layers=None) -> list[dict[str, float]]:
    """One pass over every input; per ingest, its handle time and layers."""
    from repro.obs.metrics import get_registry
    from repro.streaming.campaign import CampaignStore
    from repro.streaming.server import StreamingApp

    get_registry().enable()
    samples = []
    with tempfile.TemporaryDirectory() as journal_dir:
        app = StreamingApp(CampaignStore(journal_dir=journal_dir))
        for k, batches in enumerate(bodies):
            name = f"campaign{k}"
            status, _ = app.handle("POST", "/campaigns", {"campaign_id": name})
            assert status == 201, status
            for n, body in enumerate(batches, 1):
                if layers is not None:
                    layers.take()
                start = time.perf_counter()
                status, _ = app.handle("POST", f"/campaigns/{name}/claims", body)
                elapsed = time.perf_counter() - start
                assert status == 200, status
                sample = {"ingest": elapsed}
                if layers is not None:
                    sample.update(layers.take())
                samples.append(sample)
                if n % read_every == 0:
                    _, truths = app.handle("GET", f"/campaigns/{name}/truths")
                    if digest is not None:
                        digest.update(truths)
            app.handle("DELETE", f"/campaigns/{name}")
    return samples


def cold_run_seconds(repeats: int) -> list[float]:
    """A cold one-iteration DATE run on two claims of one task."""
    from repro import DATE
    from repro.types import Dataset, Task, WorkerProfile

    dataset = Dataset(
        tasks=(Task("t", domain=("x", "y")),),
        workers=(WorkerProfile("a"), WorkerProfile("b")),
        claims={("a", "t"): "x", ("b", "t"): "y"},
    )
    date = DATE()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        date.run(dataset)
        times.append(time.perf_counter() - start)
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3, help="timed replays")
    parser.add_argument("--digest", action="store_true")
    args = parser.parse_args()

    bodies = payloads(args.seed)
    if args.digest:
        digest = hashlib.sha256()
        replay(bodies, read_every=1, digest=digest)
        print(digest.hexdigest())
        return

    from repro.core.date import DATE
    from repro.core.indexing import DatasetIndex
    from repro.streaming.journal import CampaignJournal

    replay(bodies[:1], read_every=READ_EVERY)  # warm-up: first-call caches
    layers = Layers()
    layers.wrap(DATE, "run", "subrun")
    layers.wrap(DatasetIndex, "extended", "extend")
    layers.wrap(DatasetIndex, "restricted", "restricted")
    layers.wrap(CampaignJournal, "append", "journal")
    samples = []
    for _ in range(args.repeats):
        samples += replay(bodies, read_every=READ_EVERY, layers=layers)
    report = {
        name: round(1e3 * statistics.median(s.get(name, 0.0) for s in samples), 4)
        for name in ("ingest", "subrun", "extend", "restricted", "journal")
    }
    cold = cold_run_seconds(200)
    report["cold_run"] = round(1e3 * statistics.median(cold), 4)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
