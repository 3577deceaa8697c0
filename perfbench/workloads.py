"""The four benchmark workloads.

Each workload function takes a :class:`Context` and returns a
:class:`Measured`.  Inputs come only from the seed: the benchmark
generates Qatar-Living-like campaigns (the paper's evaluation shape) at
paper scale (300 tasks, 120 workers), 3x and 10x, and hands the program
nothing but those inputs.

A run works in *rounds*.  One round is a fixed amount of work (one
solve, replay or IMC2 run per generated input; one campaign upload over
HTTP per input).  Rounds repeat while another one still fits in
``--seconds`` and at least one always runs.  Output checks run after
the timed rounds.
"""

from __future__ import annotations

import gc
import itertools
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import layer_metrics
from tracer import Tracer, instrument

HERE = Path(__file__).resolve().parent

#: Generator sizes: the paper's campaign and its 3x / 10x scale-ups.
PAPER = dict(n_tasks=300, n_workers=120, n_copiers=30, target_claims=6000)
THREE_X = dict(n_tasks=900, n_workers=360, n_copiers=90, target_claims=20000)
TEN_X = dict(n_tasks=3000, n_workers=1200, n_copiers=300, target_claims=60000)

#: Inputs generated per run.  Solve times differ between generated
#: campaigns (DATE needs 4 to 7 iterations at 10x), so a run takes the
#: median over several inputs where its time allows; the replay workload
#: also pays a full refresh and a cold run for its output check.
DATE_INPUTS = 3
STREAM_INPUTS = 1
IMC2_INPUTS = 2

STREAM_BATCHES = 20
#: Paper-scale campaigns the HTTP client cycles through, one per round.
SERVE_INPUTS = 4
SERVE_BATCHES = 120
SERVE_READ_EVERY = 4
SERVE_WARMUP_BATCHES = 12
#: Server starts per run; setup_s takes their median.
SERVE_STARTS = 3
IMC2_CAP = 0.8


class CheckFailed(Exception):
    """A program output did not match its reference."""


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    #: ``time.perf_counter()`` when the benchmark process started.
    started: float
    workdir: Path


@dataclass
class Measured:
    """What one run measured; ``run.py`` turns it into metrics."""

    setup_s: float
    work_s: list[float]
    op_s: list[float]
    peak_rss_mb: float
    precision: float
    attempted: int
    failed: int
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    shape: dict[str, int] = field(default_factory=dict)
    per_layer: dict[str, float] | None = None
    report: dict | None = None


def input_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def campaign(seed: int, k: int, size: dict):
    from repro.datasets import generate_qatar_living_like

    return generate_qatar_living_like(seed=input_rng(seed, k), **size)


def shape_of(datasets) -> dict[str, int]:
    """Input shape summed over the run's generated campaigns.

    ``pair_rows`` counts one row per co-answering pair and shared task,
    the size of the dependence kernels' pair tables.
    """
    shape = {"inputs": len(datasets), "tasks": 0, "workers": 0, "copiers": 0,
             "claims": 0, "pair_rows": 0}
    for dataset in datasets:
        shape["tasks"] += dataset.n_tasks
        shape["workers"] += dataset.n_workers
        shape["copiers"] += sum(1 for w in dataset.workers if w.is_copier)
        shape["claims"] += dataset.n_claims
        shape["pair_rows"] += sum(
            len(claims) * (len(claims) - 1) // 2
            for claims in dataset.claims_by_task.values()
        )
    return shape


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def freeze_heap() -> None:
    """Move set-up objects out of the cyclic collector's reach.

    Holding several generated campaigns would otherwise make every
    full collection during a timed operation traverse all of them.
    """
    gc.collect()
    gc.freeze()


def timed(fn):
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def run_rounds(seconds: float, one_round) -> None:
    """Call ``one_round`` until another would overrun ``seconds``."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round(rounds)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return


def precision_of(truths: dict[str, str], reference: dict[str, str]) -> float:
    return sum(1 for t, v in reference.items() if truths.get(t) == v) / len(reference)


def setup_elapsed(ctx: Context) -> float:
    """Set-up time spent once per run: imports plus warm-up."""
    return time.perf_counter() - ctx.started


def _traced_rounds(ctx, n_inputs, op, *, run_label):
    """Shared loop of the in-process workloads.

    ``op(k) -> (output, seconds)`` runs the timed operation on
    input ``k``.  Traced runs first time one untraced op on input 0,
    then install the wrappers; the difference on that input is the
    tracing overhead.
    """
    untraced = None
    tracer = None
    if ctx.trace:
        _out, untraced = op(0)
        tracer = Tracer()
        instrument(tracer)
    ops, outputs = [], []
    state = {"attempted": 0, "failed": 0}

    def one_round(r):
        for k in range(n_inputs):
            if tracer is not None:
                tracer.set_run(f"{run_label}:{r}:{k}")
            state["attempted"] += 1
            try:
                out, seconds = op(k)
            except Exception as exc:  # counted, reported, never fatal to the run
                print(f"{run_label} {k} failed: {exc!r}", file=sys.stderr)
                state["failed"] += 1
                continue
            ops.append(seconds)
            outputs.append((r, k, out))

    run_rounds(ctx.seconds, one_round)
    per_layer = report = None
    if tracer is not None:
        tracer.uninstall()
        first_traced = ops[0] if ops else float("nan")
        overhead = (first_traced - untraced) / untraced
        per_layer, report = layer_metrics(
            tracer.spans,
            tracer.counts,
            units=len(ops),
            op_seconds=sum(ops),
            overhead_frac=overhead,
        )
        report["tracing_overhead"] = {
            "untraced_s": untraced,
            "traced_s": first_traced,
            "overhead_s": first_traced - untraced,
            "frac": overhead,
            "input": 0,
        }
        tracer.dump(ctx.workdir.parent / f"spans-{run_label}.json")
    return ops, outputs, state, per_layer, report


# ----------------------------------------------------------------------
# date-10x: one cold DATE run per 10x campaign, full result included.
# ----------------------------------------------------------------------


def date_10x(ctx: Context) -> Measured:
    from repro import DATE

    DATE().run(campaign(ctx.seed, 99, PAPER))  # thread pools, first-call caches
    base = setup_elapsed(ctx)

    unit_setup, inputs = [], []
    for k in range(DATE_INPUTS):
        start = time.perf_counter()
        inputs.append(campaign(ctx.seed, k, TEN_X))
        unit_setup.append(time.perf_counter() - start)
    freeze_heap()

    def op(k):
        dataset = inputs[k]
        result, seconds = timed(lambda: DATE().run(dataset))
        summary = {
            "truths": result.truths,
            "precision": result.precision(),
            "shape": result.accuracy_matrix.shape,
            "dependence": len(result.dependence),
            "support": len(result.support),
        }
        return summary, seconds

    ops, outputs, state, per_layer, report = _traced_rounds(
        ctx, len(inputs), op, run_label="date-10x"
    )
    rss = peak_rss_mb()

    first_truths: dict[int, dict] = {}
    for _r, k, out in outputs:
        dataset = inputs[k]
        if out["shape"] != (dataset.n_workers, dataset.n_tasks):
            raise CheckFailed(f"input {k}: accuracy matrix shape {out['shape']}")
        answered = {task for (_w, task) in dataset.claims}
        if set(out["truths"]) != answered:
            raise CheckFailed(f"input {k}: truths do not cover the answered tasks")
        if out["dependence"] == 0 or out["support"] != len(answered):
            raise CheckFailed(f"input {k}: result tables were not materialized")
        if out["precision"] < 0.9:
            raise CheckFailed(f"input {k}: precision {out['precision']:.4f} < 0.9")
        if first_truths.setdefault(k, out["truths"]) != out["truths"]:
            raise CheckFailed(f"input {k}: repeated solves disagree")
    precisions = [out["precision"] for _r, _k, out in outputs]
    precision = statistics.fmean(precisions)
    solve_s = statistics.median(ops)
    return Measured(
        setup_s=base + statistics.median(unit_setup),
        work_s=ops,
        op_s=ops,
        peak_rss_mb=rss,
        precision=precision,
        attempted=state["attempted"],
        failed=state["failed"],
        named={"solve_s": (solve_s, "s"), "precision": (precision, "ratio")},
        shape=shape_of(inputs),
        per_layer=per_layer,
        report=report,
    )


# ----------------------------------------------------------------------
# stream-10x: the 10x campaign replayed in 20 batches into OnlineDATE.
# ----------------------------------------------------------------------


def stream_10x(ctx: Context) -> Measured:
    from repro import DATE
    from repro.streaming import OnlineDATE, replay_batches

    warm = OnlineDATE()
    for batch in replay_batches(campaign(ctx.seed, 99, PAPER), 5):
        warm.ingest(batch)
    base = setup_elapsed(ctx)

    unit_setup, inputs, batches = [], [], []
    for k in range(STREAM_INPUTS):
        start = time.perf_counter()
        dataset = campaign(ctx.seed, k, TEN_X)
        batches.append(replay_batches(dataset, STREAM_BATCHES))
        unit_setup.append(time.perf_counter() - start)
        inputs.append(dataset)
    freeze_heap()
    #: The latest replay of input 0, kept for the exactness check.
    kept: dict = {}

    def op(k):
        online = OnlineDATE()
        latencies = []
        gc.collect()
        for batch in batches[k]:
            start = time.perf_counter()
            online.ingest(batch)
            latencies.append(time.perf_counter() - start)
        if k == 0:
            kept["online"] = online
        out = {"ingest_s": latencies, "precision": precision_of(online.truths, inputs[k].truths)}
        return out, sum(latencies)

    replays, outputs, state, per_layer, report = _traced_rounds(
        ctx, len(inputs), op, run_label="stream-10x"
    )
    rss = peak_rss_mb()
    ingest_s = [s for _r, _k, out in outputs for s in out["ingest_s"]]
    precisions = [out["precision"] for _r, _k, out in outputs]

    # Exactness: the final refresh equals a cold run on the same campaign
    # in arrival order.  (Workers register online in first-claim order;
    # a cold run on the generator's worker order gets the same truths
    # but accuracies that differ in the 7th digit.)
    online = kept.get("online")
    if online is None:
        raise CheckFailed("no completed replay of input 0 to check")
    final = online.refresh()
    # lean skips only the support/dependence tables, which are not compared.
    cold = DATE().run(online.dataset, lean=True)
    if final.truths != cold.truths or final.iterations != cold.iterations:
        raise CheckFailed("refresh after replay differs from the cold DATE run")
    if not np.allclose(final.accuracy_matrix, cold.accuracy_matrix, rtol=0, atol=1e-9):
        raise CheckFailed("refresh accuracies differ from the cold run by > 1e-9")
    for worker_id, accuracy in cold.worker_accuracy.items():
        if abs(final.worker_accuracy[worker_id] - accuracy) > 1e-9:
            raise CheckFailed(f"worker {worker_id} accuracy differs by > 1e-9")

    precision = statistics.fmean(precisions)
    return Measured(
        setup_s=base + statistics.median(unit_setup),
        work_s=replays,
        op_s=ingest_s,
        peak_rss_mb=rss,
        precision=precision,
        attempted=state["attempted"],
        failed=state["failed"],
        named={
            "replay_s": (statistics.median(replays), "s"),
            "ingest_ms_p50": (statistics.median(ingest_s) * 1e3, "ms"),
            "precision": (precision, "ratio"),
        },
        shape=shape_of(inputs),
        per_layer=per_layer,
        report=report,
    )


# ----------------------------------------------------------------------
# imc2-3x: DATE, SOAC build, winner selection and critical payments.
# ----------------------------------------------------------------------


def imc2_3x(ctx: Context) -> Measured:
    from repro.mechanism.imc2 import IMC2

    IMC2(requirement_cap=IMC2_CAP).run(campaign(ctx.seed, 99, PAPER))
    base = setup_elapsed(ctx)

    unit_setup, inputs = [], []
    for k in range(IMC2_INPUTS):
        start = time.perf_counter()
        inputs.append(campaign(ctx.seed, k, THREE_X))
        unit_setup.append(time.perf_counter() - start)
    freeze_heap()

    def op(k):
        return timed(lambda: IMC2(requirement_cap=IMC2_CAP).run(inputs[k]))

    ops, outputs, state, per_layer, report = _traced_rounds(
        ctx, len(inputs), op, run_label="imc2-3x"
    )
    rss = peak_rss_mb()

    precisions = []
    for _r, k, outcome in outputs:
        instance, auction = outcome.instance, outcome.auction
        if not instance.is_covering(auction.winner_indexes):
            raise CheckFailed(f"input {k}: winners do not cover the capped requirements")
        for index, worker_id in zip(auction.winner_indexes, auction.winner_ids):
            # A critical payment b_k * own / other equals the bid when the
            # replacement's marginal equals the winner's; allow that one
            # rounding step.
            if auction.payments[worker_id] < instance.bids[index] * (1 - 1e-12):
                raise CheckFailed(f"input {k}: winner {worker_id} paid below its bid")
        precisions.append(outcome.truth.precision())
    precision = statistics.fmean(precisions)
    return Measured(
        setup_s=base + statistics.median(unit_setup),
        work_s=ops,
        op_s=ops,
        peak_rss_mb=rss,
        precision=precision,
        attempted=state["attempted"],
        failed=state["failed"],
        named={"imc2_s": (statistics.median(ops), "s"), "precision": (precision, "ratio")},
        shape=shape_of(inputs),
        per_layer=per_layer,
        report=report,
    )


# ----------------------------------------------------------------------
# serve-journaled: journaled HTTP service, one closed-loop client.
# ----------------------------------------------------------------------


class ServerProcess:
    """One ``server_launcher.py`` process with its own journal directory."""

    def __init__(self, workdir: Path, *, trace: bool):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.trace = trace
        self.stats_path = self.dir / "stats.json"
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> None:
        """Launch and wait until ``/healthz`` reports ok."""
        from repro.streaming.client import StreamingClient

        start = time.perf_counter()
        out_path = self.dir / "stdout.log"
        command = [
            sys.executable,
            str(HERE / "server_launcher.py"),
            "--journal-dir",
            str(self.dir / "journal"),
            "--stats-out",
            str(self.stats_path),
        ]
        if self.trace:
            command.append("--trace")
        with open(out_path, "w") as out, open(self.dir / "stderr.log", "w") as err:
            self.proc = subprocess.Popen(command, stdout=out, stderr=err, cwd=HERE.parent)
        deadline = start + 60.0
        while not self.url:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early; see {self.dir / 'stderr.log'}")
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not print its address")
            for line in out_path.read_text().splitlines():
                if "http://" in line:
                    self.url = line[line.index("http://"):].strip()
            time.sleep(0.002)
        probe = StreamingClient(self.url, retries=0, timeout=10.0)
        while probe.healthz().get("status") != "ok":
            if time.perf_counter() > deadline:
                raise RuntimeError("server never reported healthy")
            time.sleep(0.002)

    def stop(self) -> dict:
        """SIGTERM, wait, and read what the launcher wrote on exit."""
        if self.proc is None:
            return {}
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if not self.stats_path.exists():
            return {}
        return json.loads(self.stats_path.read_text())


def _drive(url, batches, seconds, tracer):
    """The closed loop: one client uploads one campaign per round.

    Round ``r`` creates a campaign from input ``r % len(batches)`` and
    ingests its batches with client sequence numbers, reading the
    campaign's truths after every fourth ingest.  Each request goes out
    only once the previous one is answered.  Rounds come in whole cycles
    over the inputs, so every run uploads the same mix.  The first cycle's
    campaigns are kept for the output check; later ones are deleted once
    uploaded.
    """
    from repro.streaming.client import ClientError, ServerUnavailableError, StreamingClient

    totals = {"attempted": 0, "failed": 0, "retries": 0, "acked": 0}
    samples: dict[str, list[float]] = {"ingest_s": [], "read_s": [], "unit_s": [], "op_s": []}
    served: list[tuple[int, dict]] = []

    def counting_sleep(delay: float) -> None:
        totals["retries"] += 1
        time.sleep(delay)

    client = StreamingClient(url, timeout=30.0, sleep=counting_sleep)

    def call(kind, fn, *args):
        totals["attempted"] += 1
        start = time.perf_counter()
        reply = fn(*args)
        elapsed = time.perf_counter() - start
        samples["op_s"].append(elapsed)
        if kind:
            samples[kind].append(elapsed)
        return reply

    start = time.perf_counter()
    kept: list[str] = []
    try:
        for rnd in itertools.count():
            k = rnd % len(batches)
            campaign_id = f"campaign{rnd}"
            if tracer is not None:
                tracer.set_run(campaign_id)
            round_start = time.perf_counter()
            call(None, client.create_campaign, campaign_id)
            for n, batch in enumerate(batches[k], 1):
                reply = call("ingest_s", client.ingest, campaign_id, batch)
                if reply.get("duplicate"):
                    totals["failed"] += 1  # a first send must never be a duplicate
                else:
                    totals["acked"] += 1
                if n % SERVE_READ_EVERY == 0:
                    truths = call("read_s", client.truths, campaign_id)
            samples["unit_s"].append(time.perf_counter() - round_start)
            served.append((k, truths["truths"]))
            if rnd < len(batches):
                kept.append(campaign_id)
            else:
                call(None, client.delete_campaign, campaign_id)
            cycles, in_cycle = divmod(rnd + 1, len(batches))
            elapsed = time.perf_counter() - start
            if in_cycle == 0 and elapsed + elapsed / cycles > seconds:
                break
    except (ClientError, ServerUnavailableError) as exc:
        print(f"client failed: {exc}", file=sys.stderr)
        totals["failed"] += 1
    totals["failed"] += totals["retries"]
    return {
        **samples,
        **totals,
        "served": served,
        "kept": kept,
        "start": start,
        "end": time.perf_counter(),
    }


def _warm_up(server: ServerProcess, batches) -> None:
    """First-call caches of a fresh server: a short campaign, then delete it."""
    from repro.streaming.client import StreamingClient

    client = StreamingClient(server.url, retries=0, timeout=30.0)
    client.create_campaign("warm-up")
    for batch in batches[:SERVE_WARMUP_BATCHES]:
        client.ingest("warm-up", batch)
    client.truths("warm-up")
    client.delete_campaign("warm-up")


def serve_journaled(ctx: Context) -> Measured:
    from repro.streaming import OnlineDATE, replay_batches
    from repro.streaming.client import StreamingClient
    from repro.streaming.ingest import batch_from_json, batch_to_json

    inputs = [campaign(ctx.seed, k, PAPER) for k in range(SERVE_INPUTS)]
    batches = [replay_batches(dataset, SERVE_BATCHES) for dataset in inputs]
    base = setup_elapsed(ctx)

    def start_server(name: str, trace: bool) -> tuple[ServerProcess, float]:
        server = ServerProcess(ctx.workdir / name, trace=trace)
        servers.append(server)
        start = time.perf_counter()
        server.start()
        _warm_up(server, batches[0])
        return server, time.perf_counter() - start

    servers: list[ServerProcess] = []
    try:
        starts = []
        for i in range(SERVE_STARTS):
            server, seconds = start_server(f"server{i}", False)
            starts.append(seconds)
            if i < SERVE_STARTS - 1:
                server.stop()
        untraced_p50 = None
        tracer = None
        if ctx.trace:
            # One untraced round first: its ingest p50 is the baseline
            # of the tracing overhead.  Then a traced server takes over.
            baseline = _drive(server.url, batches, 0.0, None)
            untraced_p50 = statistics.median(baseline["ingest_s"])
            server.stop()
            server, _seconds = start_server("server-traced", True)
            tracer = Tracer()
            instrument(tracer)
        freeze_heap()
        drive = _drive(server.url, batches, ctx.seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
        if len(drive["kept"]) != len(inputs):
            raise CheckFailed("the client did not finish one upload of every input")

        # Output check, outside the timed window: after a refresh the
        # served truths of input 0 equal an in-process replay of the same
        # wire batches.
        probe = StreamingClient(server.url, retries=0, timeout=60.0)
        refreshed = []
        for campaign_id in drive["kept"]:
            probe.refresh(campaign_id)
            refreshed.append(probe.truths(campaign_id))
        online = OnlineDATE()
        for batch in batches[0]:
            online.ingest(batch_from_json(batch_to_json(batch, include_truth=True)))
        expected = online.refresh()
        if refreshed[0]["truths"] != expected.truths:
            raise CheckFailed("input 0: served truths differ from the replay")
        for task_id, value in expected.confidence.items():
            if abs(refreshed[0]["confidence"][task_id] - value) > 1e-12:
                raise CheckFailed(f"input 0: confidence of {task_id} differs")
        stats = server.stop()
    finally:
        for server in servers:
            server.stop()

    ingest_s, read_s = drive["ingest_s"], drive["read_s"]
    phase = drive["end"] - drive["start"]
    p50 = statistics.median(ingest_s)
    per_layer = report = None
    if tracer is not None:
        server_spans = [
            span for span in stats.get("spans", [])
            if drive["start"] <= span[2] and span[3] <= drive["end"]
        ]
        counts = dict(tracer.counts)
        for name, value in stats.get("counts", {}).items():
            counts[name] = counts.get(name, 0.0) + value
        counts["client.retries"] = drive["retries"]
        overhead = (p50 - untraced_p50) / untraced_p50
        per_layer, report = layer_metrics(
            tracer.spans,
            counts,
            units=len(drive["unit_s"]),
            op_seconds=sum(drive["op_s"]),
            overhead_frac=overhead,
            server_spans=server_spans,
        )
        report["tracing_overhead"] = {
            "untraced_ingest_ms_p50": untraced_p50 * 1e3,
            "traced_ingest_ms_p50": p50 * 1e3,
            "overhead_ms": (p50 - untraced_p50) * 1e3,
            "frac": overhead,
        }
        tracer.dump(ctx.workdir.parent / "spans-serve-journaled.json")

    precision = statistics.fmean(
        precision_of(served["truths"], dataset.truths)
        for served, dataset in zip(refreshed, inputs)
    )
    # Quality of what was served live: the truths read at the end of
    # each upload, before any refresh.
    live_precision = statistics.fmean(
        precision_of(truths, inputs[k].truths) for k, truths in drive["served"]
    )
    return Measured(
        setup_s=base + statistics.median(starts),
        work_s=drive["unit_s"],
        op_s=ingest_s,
        peak_rss_mb=stats.get("peak_rss_mb", float("nan")),
        precision=precision,
        attempted=drive["attempted"],
        failed=drive["failed"],
        named={
            "ingest_ms_p50": (p50 * 1e3, "ms"),
            "ingest_ms_p95": (float(np.percentile(ingest_s, 95)) * 1e3, "ms"),
            "ingests_per_s": (drive["acked"] / phase, "1/s"),
            "read_ms_p50": (statistics.median(read_s) * 1e3, "ms"),
            "refreshed_precision": (precision, "ratio"),
            "live_precision": (live_precision, "ratio"),
            "acked_ingests": (drive["acked"], "count"),
            "reads": (len(read_s), "count"),
        },
        shape=shape_of(inputs),
        per_layer=per_layer,
        report=report,
    )


WORKLOADS = {
    "date-10x": date_10x,
    "stream-10x": stream_10x,
    "imc2-3x": imc2_3x,
    "serve-journaled": serve_journaled,
}
