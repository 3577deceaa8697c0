"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

Subcommands:

- ``repro list`` — show every reproducible experiment;
- ``repro run <id> [--scale quick|paper] [--instances N] [--seed S]
  [--out DIR] [--no-chart]`` — run one experiment (or ``all``), print
  the table and ASCII chart, optionally export CSV/JSON;
- ``repro generate <dir> [--tasks N] [--workers N] [--copiers N]
  [--claims N] [--seed S]`` — write a seeded synthetic campaign as CSV;
- ``repro truth <dir> [--algorithm NAME] [--r R] [--alpha A]`` — run
  truth discovery on a CSV dataset and print the estimates; any
  algorithm-zoo member (``repro algo list``) is accepted;
- ``repro algo list`` — show every registered truth-discovery
  algorithm (the zoo behind the ``TruthDiscoverer`` interface);
- ``repro algo run [--algorithms A,B] [--fractions F1,F2] [--scale S]
  [--instances N] [--parallel N] [--cache]`` — run the
  ``algo-accuracy`` grid: precision of each selected algorithm as the
  copier fraction sweeps;
- ``repro auction <dir> [--cap F]`` — run the full IMC2 mechanism on a
  CSV dataset and print winners and payments;
- ``repro serve [--host H] [--port P] [--refresh-every N]
  [--journal-dir DIR]`` — run the streaming truth-discovery HTTP
  service; with ``--journal-dir`` every campaign is write-ahead
  journaled and replayed after a crash (DESIGN.md §15), and SIGTERM
  shuts down gracefully (drain, flush, exit 0);
- ``repro recover --journal-dir DIR`` — replay the ingest journals
  offline and print per-campaign recovery reports;
- ``repro ingest <dir> [--batches N] [--url URL]`` — replay an archived
  CSV campaign as a claim-batch stream, either through an in-process
  online estimator or against a running ``repro serve`` instance (the
  remote path retries with backoff and exactly-once sequence numbers);
- ``repro scenario list`` — show every registered adversarial scenario;
- ``repro scenario run <name> [--instances N] [--seed S]
  [--parallel N] [--cache] [--store DIR]`` — run one adversarial
  scenario end to end and print the per-metric summary (DATE/MV
  precision, detection P/R/F1, auction shading metrics when the
  scenario runs the auction stage);
- ``repro ledger list/show/gc [--store DIR]`` — inspect and maintain
  the content-addressed run ledger that ``--cache`` runs read and
  write (see DESIGN.md §11);
- ``repro metrics [--url URL] [--json]`` — print the process metrics
  registry (or scrape a running service's ``/metrics``);
- ``repro trace list/show`` — inspect recorded run traces (JSONL event
  streams keyed by the ledger result fingerprint, DESIGN.md §13);
  ``repro run --trace`` / ``repro ingest --trace`` record one.

Caching: ``repro run``/``repro scenario run`` accept ``--cache`` /
``--no-cache`` and ``--store DIR`` (default ``$REPRO_STORE`` or
``~/.cache/repro``).  With the cache on, per-instance rows, sweep
points and finished results are banked under content fingerprints, so
re-runs and ``--instances`` growth recompute only the delta — and the
warm output is bit-identical to a cold run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from .artifacts import RunLedger
from .artifacts.ledger import KINDS as LEDGER_KINDS
from .core.config import DateConfig
from .datasets.io import load_dataset, save_dataset
from .datasets.qatar_living import generate_qatar_living_like
from .discovery import ALGORITHM_NAMES, list_algorithms, make_discoverer
from .errors import ReproError
from .experiments.algo_accuracy import run_algo_accuracy
from .experiments.registry import get_experiment, list_experiments
from .mechanism.imc2 import IMC2
from .obs import (
    default_trace_dir,
    find_trace,
    get_logger,
    get_registry,
    list_traces,
    read_trace,
    render_prometheus,
    trace_run,
)
from .reporting.export import write_csv, write_json
from .reporting.figures import render_chart
from .reporting.tables import format_table, render_result_table
from .scenarios import get_scenario, list_scenarios, run_scenario
from .streaming import (
    CampaignStore,
    OnlineDATE,
    StreamingClient,
    replay_batches,
    serve,
)

__all__ = ["main"]


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--cache/--no-cache`` + ``--store`` argument pair."""
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="read/write the content-addressed run ledger so repeated "
        "and resumed runs recompute only the missing work "
        "(bit-identical to a cold run; default: off)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        help="run-ledger directory (default: $REPRO_STORE or ~/.cache/repro)",
    )


def _ledger_from(args: argparse.Namespace) -> RunLedger | None:
    """The ledger selected by ``--cache``/``--store`` (None = cache off)."""
    if not getattr(args, "cache", False):
        return None
    return RunLedger(args.store)


def _print_ledger_stats(ledger: RunLedger) -> None:
    stats = ledger.stats
    print(
        f"ledger: {stats.describe()} "
        f"(hit rate {stats.hit_rate * 100.0:.1f}%, store: {ledger.root})"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables and figures from 'Incentivizing the Workers "
            "for Truth Discovery in Crowdsourcing with Copiers' (ICDCS 2019)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all reproducible experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (see 'repro list') or 'all'")
    run.add_argument(
        "--scale",
        choices=("quick", "paper"),
        default="quick",
        help="workload size preset (default: quick)",
    )
    run.add_argument(
        "--instances",
        type=int,
        default=None,
        help="override the number of seeded instances to average over",
    )
    run.add_argument("--seed", type=int, default=42, help="base seed (default 42)")
    run.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to export CSV and JSON results into",
    )
    run.add_argument(
        "--no-chart", action="store_true", help="skip the ASCII chart rendering"
    )
    run.add_argument(
        "--parallel",
        type=int,
        default=None,
        help="fan instances out over N worker processes (experiments "
        "declaring the 'parallel' feature only; results are "
        "bit-identical to the serial run)",
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="record a structured JSONL run trace (inspect with "
        "'repro trace show'); with --cache the trace events carry the "
        "ledger row fingerprints",
    )
    run.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="trace output directory (default: $REPRO_TRACE_DIR or "
        "~/.cache/repro/traces)",
    )
    _add_cache_arguments(run)

    generate = sub.add_parser(
        "generate", help="write a seeded synthetic campaign as CSV"
    )
    generate.add_argument("directory", type=Path, help="output directory")
    generate.add_argument("--tasks", type=int, default=300)
    generate.add_argument("--workers", type=int, default=120)
    generate.add_argument("--copiers", type=int, default=30)
    generate.add_argument("--claims", type=int, default=6000)
    generate.add_argument("--copy-prob", type=float, default=0.8)
    generate.add_argument("--seed", type=int, default=42)

    truth = sub.add_parser("truth", help="run truth discovery on a CSV dataset")
    truth.add_argument("directory", type=Path, help="dataset directory")
    truth.add_argument(
        "--algorithm",
        choices=ALGORITHM_NAMES,
        default="DATE",
        help="any algorithm-zoo member (see 'repro algo list')",
    )
    truth.add_argument("--r", type=float, default=0.4, help="assumed copy prob")
    truth.add_argument("--alpha", type=float, default=0.2, help="dependence prior")
    truth.add_argument("--epsilon", type=float, default=0.5, help="initial accuracy")
    truth.add_argument(
        "--limit", type=int, default=20, help="print at most this many tasks"
    )

    algo = sub.add_parser(
        "algo", help="truth-discovery algorithm zoo (list / run)"
    )
    algo_sub = algo.add_subparsers(dest="algo_command", required=True)
    algo_sub.add_parser("list", help="list every registered algorithm")
    algo_run = algo_sub.add_parser(
        "run", help="run the algo-accuracy grid (precision vs copier fraction)"
    )
    algo_run.add_argument(
        "--algorithms",
        default=",".join(ALGORITHM_NAMES),
        help="comma-separated algorithm names (default: the whole zoo)",
    )
    algo_run.add_argument(
        "--fractions",
        default=None,
        help="comma-separated copier fractions of the worker pool "
        "(default: 0,0.1,0.2,0.3,0.4)",
    )
    algo_run.add_argument(
        "--scale",
        choices=("quick", "paper"),
        default="quick",
        help="workload size preset (default: quick)",
    )
    algo_run.add_argument(
        "--instances",
        type=int,
        default=None,
        help="override the number of seeded instances to average over",
    )
    algo_run.add_argument("--seed", type=int, default=42, help="base seed")
    algo_run.add_argument(
        "--parallel",
        type=int,
        default=1,
        help="fan instances out over N worker processes "
        "(bit-identical to the serial run)",
    )
    algo_run.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to export CSV and JSON results into",
    )
    algo_run.add_argument(
        "--no-chart", action="store_true", help="skip the ASCII chart rendering"
    )
    _add_cache_arguments(algo_run)

    auction = sub.add_parser("auction", help="run IMC2 on a CSV dataset")
    auction.add_argument("directory", type=Path, help="dataset directory")
    auction.add_argument(
        "--cap",
        type=float,
        default=None,
        help="cap requirements at this fraction of available accuracy",
    )
    auction.add_argument("--r", type=float, default=0.4, help="assumed copy prob")

    server = sub.add_parser(
        "serve", help="run the streaming truth-discovery HTTP service"
    )
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument("--port", type=int, default=8080)
    server.add_argument(
        "--refresh-every",
        type=int,
        default=0,
        help="full re-estimation every N ingested batches per campaign "
        "(0 = only on explicit /refresh)",
    )
    server.add_argument(
        "--max-campaigns",
        type=int,
        default=None,
        help="evict the least recently used campaign beyond this count",
    )
    server.add_argument("--r", type=float, default=0.4, help="assumed copy prob")
    server.add_argument("--alpha", type=float, default=0.2, help="dependence prior")
    server.add_argument("--epsilon", type=float, default=0.5, help="initial accuracy")
    server.add_argument(
        "--algorithm",
        choices=ALGORITHM_NAMES,
        default="DATE",
        help="default truth-discovery algorithm for new campaigns "
        "(per-campaign override via the create payload)",
    )
    server.add_argument("--quiet", action="store_true", help="suppress access logs")
    server.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        help="write-ahead journal directory: campaign creation and every "
        "claim batch are fsync'd here before they are applied, and a "
        "restarted server replays them back to the pre-crash state",
    )

    recover = sub.add_parser(
        "recover",
        help="replay ingest journals offline and print recovery reports",
    )
    recover.add_argument(
        "--journal-dir",
        type=Path,
        required=True,
        help="journal directory written by 'repro serve --journal-dir'",
    )
    recover.add_argument(
        "--json",
        action="store_true",
        help="print the recovery reports as JSON",
    )

    ingest = sub.add_parser(
        "ingest", help="replay a CSV campaign as a claim-batch stream"
    )
    ingest.add_argument("directory", type=Path, help="dataset directory")
    ingest.add_argument(
        "--batches", type=int, default=10, help="number of replay batches"
    )
    ingest.add_argument(
        "--campaign",
        default=None,
        help="campaign id (default: the dataset directory name)",
    )
    ingest.add_argument(
        "--url",
        default=None,
        help="base URL of a running 'repro serve' instance; when omitted "
        "the replay runs through an in-process online estimator",
    )
    ingest.add_argument(
        "--refresh-every",
        type=int,
        default=0,
        help="periodic full refresh cadence during the replay",
    )
    ingest.add_argument("--r", type=float, default=0.4, help="assumed copy prob")
    ingest.add_argument("--alpha", type=float, default=0.2, help="dependence prior")
    ingest.add_argument("--epsilon", type=float, default=0.5, help="initial accuracy")
    ingest.add_argument(
        "--algorithm",
        choices=ALGORITHM_NAMES,
        default=None,
        help="truth-discovery algorithm driving the replay "
        "(default: DATE in-process, the server's default remotely)",
    )
    ingest.add_argument(
        "--trace",
        action="store_true",
        help="record a structured JSONL trace of the replay",
    )
    ingest.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="trace output directory (default: $REPRO_TRACE_DIR or "
        "~/.cache/repro/traces)",
    )

    scenario = sub.add_parser(
        "scenario", help="adversarial scenario lab (list / run)"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="list all registered scenarios")
    scenario_run = scenario_sub.add_parser(
        "run", help="run one adversarial scenario end to end"
    )
    scenario_run.add_argument("name", help="scenario name (see 'scenario list')")
    scenario_run.add_argument(
        "--instances",
        type=int,
        default=None,
        help="override the number of seeded instances",
    )
    scenario_run.add_argument(
        "--seed", type=int, default=None, help="override the base seed"
    )
    scenario_run.add_argument(
        "--parallel",
        type=int,
        default=1,
        help="fan instances out over N worker processes "
        "(default 1 = in-process; bit-identical to the serial run)",
    )
    scenario_run.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="override the dependence-posterior detection threshold",
    )
    scenario_run.add_argument(
        "--algorithm",
        choices=ALGORITHM_NAMES,
        default=None,
        help="override the scenario's truth-discovery algorithm",
    )
    _add_cache_arguments(scenario_run)

    ledger = sub.add_parser(
        "ledger", help="inspect / maintain the run-ledger store"
    )
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)
    ledger_list = ledger_sub.add_parser(
        "list", help="list stored artifacts (newest first)"
    )
    ledger_list.add_argument(
        "--kind",
        choices=LEDGER_KINDS,
        default=None,
        help="restrict to one artifact kind",
    )
    ledger_list.add_argument(
        "--limit", type=int, default=40, help="show at most N entries"
    )
    ledger_show = ledger_sub.add_parser(
        "show", help="print one stored entry as JSON"
    )
    ledger_show.add_argument(
        "fingerprint", help="fingerprint (any unambiguous prefix)"
    )
    ledger_gc = ledger_sub.add_parser(
        "gc", help="delete stored artifacts"
    )
    ledger_gc.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="only delete entries older than DAYS (may be fractional)",
    )
    ledger_gc.add_argument(
        "--all",
        action="store_true",
        help="delete every entry (required when --older-than is absent)",
    )
    ledger_gc.add_argument(
        "--kind",
        choices=LEDGER_KINDS,
        default=None,
        help="restrict to one artifact kind",
    )
    for sub_parser in (ledger_list, ledger_show, ledger_gc):
        sub_parser.add_argument(
            "--store",
            type=Path,
            default=None,
            help="run-ledger directory (default: $REPRO_STORE or ~/.cache/repro)",
        )

    metrics = sub.add_parser(
        "metrics", help="print the process metrics registry"
    )
    metrics.add_argument(
        "--url",
        default=None,
        help="scrape /metrics from a running 'repro serve' instance "
        "instead of reading this process's registry",
    )
    metrics.add_argument(
        "--json",
        action="store_true",
        help="print a JSON snapshot instead of Prometheus text "
        "(local registry only)",
    )

    trace = sub.add_parser(
        "trace", help="inspect recorded run traces (list / show)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_list = trace_sub.add_parser(
        "list", help="list recorded traces (newest first)"
    )
    trace_list.add_argument(
        "--limit", type=int, default=40, help="show at most N traces"
    )
    trace_show = trace_sub.add_parser(
        "show", help="print one trace's event stream"
    )
    trace_show.add_argument(
        "fingerprint", help="trace fingerprint (any unambiguous prefix)"
    )
    trace_show.add_argument(
        "--limit", type=int, default=0, help="show at most N events (0 = all)"
    )
    trace_show.add_argument(
        "--json",
        action="store_true",
        help="print raw JSONL events instead of the table",
    )
    for sub_parser in (trace_list, trace_show):
        sub_parser.add_argument(
            "--dir",
            type=Path,
            default=None,
            help="trace directory (default: $REPRO_TRACE_DIR or "
            "~/.cache/repro/traces)",
        )
    return parser


def _run_one(
    experiment_id: str,
    args: argparse.Namespace,
    ledger: RunLedger | None = None,
) -> None:
    experiment = get_experiment(experiment_id)
    kwargs: dict[str, object] = {"base_seed": args.seed}
    if experiment.supports("scale"):
        kwargs["scale"] = args.scale
    if args.instances is not None and experiment.supports("instances"):
        kwargs["instances"] = args.instances
    if args.parallel is not None:
        if experiment.supports("parallel"):
            kwargs["parallel"] = args.parallel
        else:
            parallel_ids = sorted(
                e.experiment_id for e in list_experiments() if e.supports("parallel")
            )
            get_logger("repro.cli").warning(
                "--parallel ignored: experiment is not wired onto the "
                "parallel executor, running serially",
                experiment=experiment_id,
                parallel_experiments=parallel_ids,
            )
    if ledger is not None:
        if experiment.supports("ledger"):
            # The footer reports this experiment's stats, not process
            # totals — matters for `repro run all --cache`.
            ledger.reset_stats()
            kwargs["ledger"] = ledger
        else:
            get_logger("repro.cli").warning(
                "--cache ignored: experiment measures wall-clock and is "
                "never cached",
                experiment=experiment_id,
            )
    result = experiment.runner(**kwargs)
    print(render_result_table(result))
    if not args.no_chart:
        print()
        print(render_chart(result))
    if args.out is not None:
        csv_path = write_csv(result, args.out / f"{experiment_id}.csv")
        json_path = write_json(result, args.out / f"{experiment_id}.json")
        print(f"\nwrote {csv_path} and {json_path}")
    if ledger is not None and experiment.supports("ledger"):
        _print_ledger_stats(ledger)
    print()


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_qatar_living_like(
        seed=args.seed,
        n_tasks=args.tasks,
        n_workers=args.workers,
        n_copiers=args.copiers,
        target_claims=args.claims,
        copy_prob=args.copy_prob,
    )
    path = save_dataset(dataset, args.directory)
    copiers = sum(1 for w in dataset.workers if w.is_copier)
    print(
        f"wrote {dataset.n_tasks} tasks, {dataset.n_workers} workers "
        f"({copiers} copiers), {dataset.n_claims} claims to {path}"
    )
    return 0


def _cmd_truth(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.directory)
    config = DateConfig(
        copy_prob_r=args.r, prior_alpha=args.alpha, initial_accuracy=args.epsilon
    )
    algorithm = make_discoverer(args.algorithm, date_config=config)
    result = algorithm.run(dataset)
    rows = []
    for task_id, value in list(result.truths.items())[: args.limit]:
        confidence = result.confidence.get(task_id, float("nan"))
        reference = dataset.task_by_id[task_id].truth
        verdict = "" if reference is None else ("ok" if value == reference else "WRONG")
        rows.append([task_id, value, confidence, verdict])
    print(format_table(["task", "estimate", "confidence", "vs truth"], rows))
    print(f"\nalgorithm: {result.method}, iterations: {result.iterations}")
    if dataset.truths:
        print(f"precision: {result.precision():.4f} over {len(dataset.truths)} tasks")
    if len(result.truths) > args.limit:
        print(f"(showing {args.limit} of {len(result.truths)} tasks)")
    return 0


def _cmd_algo(args: argparse.Namespace) -> int:
    if args.algo_command == "list":
        rows = [(spec.name, spec.summary) for spec in list_algorithms()]
        print(format_table(["name", "summary"], rows))
        return 0
    # run
    algorithms = tuple(
        name for name in (s.strip() for s in args.algorithms.split(",")) if name
    )
    kwargs: dict[str, object] = {
        "scale": args.scale,
        "base_seed": args.seed,
        "algorithms": algorithms,
        "parallel": args.parallel,
    }
    if args.fractions is not None:
        kwargs["copier_fractions"] = tuple(
            float(s) for s in args.fractions.split(",") if s.strip()
        )
    if args.instances is not None:
        kwargs["instances"] = args.instances
    ledger = _ledger_from(args)
    if ledger is not None:
        ledger.reset_stats()
        kwargs["ledger"] = ledger
    result = run_algo_accuracy(**kwargs)
    print(render_result_table(result))
    if not args.no_chart:
        print()
        print(render_chart(result))
    if args.out is not None:
        csv_path = write_csv(result, args.out / "algo-accuracy.csv")
        json_path = write_json(result, args.out / "algo-accuracy.json")
        print(f"\nwrote {csv_path} and {json_path}")
    if ledger is not None:
        _print_ledger_stats(ledger)
    return 0


def _cmd_auction(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.directory)
    mechanism = IMC2(DateConfig(copy_prob_r=args.r), requirement_cap=args.cap)
    outcome = mechanism.run(dataset)
    auction = outcome.auction
    rows = [
        [
            worker_id,
            auction.payments[worker_id],
            outcome.worker_utilities[worker_id],
            outcome.truth.worker_accuracy.get(worker_id, 0.0),
        ]
        for worker_id in auction.winner_ids
    ]
    print(format_table(["winner", "payment", "utility", "accuracy"], rows))
    print(f"\nwinners: {auction.n_winners} / {outcome.instance.n_workers} bidders")
    print(f"social cost: {auction.social_cost:.4f}")
    print(f"total payment: {auction.total_payment:.4f}")
    print(f"platform utility: {outcome.platform_utility:.4f}")
    print(f"social welfare: {outcome.social_welfare:.4f}")
    if auction.monopolists:
        print(f"monopolist winners (paid bid): {', '.join(auction.monopolists)}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    store = CampaignStore(
        config=DateConfig(
            copy_prob_r=args.r,
            prior_alpha=args.alpha,
            initial_accuracy=args.epsilon,
        ),
        refresh_every=args.refresh_every,
        max_campaigns=args.max_campaigns,
        algorithm=args.algorithm,
        journal_dir=args.journal_dir,
    )
    if store.last_recovery:
        recovered = sum(
            1 for r in store.last_recovery if r["status"] == "recovered"
        )
        print(
            f"recovered {recovered} campaign(s) from "
            f"{args.journal_dir} before serving",
            flush=True,
        )
    serve(args.host, args.port, store=store, quiet=args.quiet)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    store = CampaignStore(journal_dir=args.journal_dir)
    reports = store.last_recovery
    store.close()
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
        return 0
    if not reports:
        print(f"no journals found in {args.journal_dir}")
        return 0
    rows = [
        [
            r["campaign_id"],
            r["status"],
            r.get("batches", ""),
            r.get("claims", ""),
            r.get("refreshes", ""),
            "yes" if r.get("torn") else "",
            f"{r.get('seconds', 0.0):.3f}",
        ]
        for r in reports
    ]
    print(format_table(
        ["campaign", "status", "batches", "claims",
         "refreshes", "torn tail", "seconds"],
        rows,
    ))
    bad = [r for r in reports if r["status"] == "corrupt"]
    for r in bad:
        print(f"\ncorrupt journal for {r['campaign_id']!r}: {r['error']}")
    return 1 if bad else 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.url is None:
        return _replay(args, None)
    with StreamingClient(args.url) as client:
        return _replay(args, client)


def _replay(args: argparse.Namespace, client: StreamingClient | None) -> int:
    dataset = load_dataset(args.directory)
    batches = replay_batches(dataset, args.batches)
    campaign_id = args.campaign or args.directory.name
    where = ""

    # Both replay modes share the loop below; they differ only in how a
    # batch is applied and how the final estimate is obtained.
    if client is None:
        config = DateConfig(
            copy_prob_r=args.r,
            prior_alpha=args.alpha,
            initial_accuracy=args.epsilon,
        )
        online = OnlineDATE(
            config,
            refresh_every=args.refresh_every,
            algorithm=args.algorithm or "DATE",
        )

        def apply(batch) -> dict:
            return dataclasses.asdict(online.ingest(batch))

        def finalize(already_refreshed: bool):
            if already_refreshed:
                return online.truths, None
            final = online.refresh()
            return final.truths, final.iterations

    else:
        # The remote path goes through the retrying client: timeouts,
        # backoff against a restarting server, and client-assigned
        # sequence numbers so a retried batch is applied exactly once.
        where = f" on {client.base_url}"
        client.create_campaign(
            campaign_id,
            refresh_every=args.refresh_every,
            algorithm=args.algorithm,
            config={"r": args.r, "alpha": args.alpha, "epsilon": args.epsilon},
        )

        def apply(batch) -> dict:
            reply = client.ingest(campaign_id, batch)
            if reply.get("duplicate"):
                # A retried batch the server had already applied: the
                # stream is intact, there is just nothing new to report.
                return {
                    "batch": reply.get("seq", 0), "new_tasks": 0,
                    "new_workers": 0, "new_claims": 0, "dirty_tasks": 0,
                    "iterations": 0, "refreshed": False,
                }
            return reply

        def finalize(already_refreshed: bool):
            if already_refreshed:
                return client.truths(campaign_id)["truths"], None
            reply = client.refresh(campaign_id)
            return reply["truths"], reply["iterations"]

    key = {
        "command": "ingest",
        "dataset": str(args.directory),
        "campaign": campaign_id,
        "batches": args.batches,
        "remote": client is not None,
    }
    rows = []
    update: dict = {}
    with _maybe_trace(args, key) as writer:
        for batch in batches:
            start = time.perf_counter()
            update = apply(batch)
            elapsed = (time.perf_counter() - start) * 1e3
            if writer is not None:
                writer.emit(
                    "ingest_batch",
                    batch=update["batch"],
                    new_tasks=update["new_tasks"],
                    new_claims=update["new_claims"],
                    dirty_tasks=update["dirty_tasks"],
                    iterations=update["iterations"],
                    duration_ms=round(elapsed, 3),
                )
            rows.append(
                [
                    update["batch"],
                    update["new_tasks"],
                    update["new_claims"],
                    update["dirty_tasks"],
                    update["iterations"],
                    f"{elapsed:.1f}",
                ]
            )
        print(
            format_table(
                ["batch", "tasks", "claims", "dirty", "iterations", "ms"], rows
            )
        )
        truths, refresh_iterations = finalize(bool(update.get("refreshed")))
    if writer is not None:
        print(f"trace: {writer.path}")
    note = (
        "final batch included a full refresh"
        if refresh_iterations is None
        else f"final refresh: {refresh_iterations} iterations"
    )
    print(f"\ncampaign {campaign_id!r}{where}: {len(truths)} truths after "
          f"{len(batches)} batches ({note})")
    if args.url is None and dataset.truths:
        hits = sum(
            1 for task_id, truth in dataset.truths.items()
            if truths.get(task_id) == truth
        )
        print(f"precision: {hits / len(dataset.truths):.4f} "
              f"over {len(dataset.truths)} tasks")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.scenario_command == "list":
        rows = [
            (
                s.name,
                ", ".join(strategy.name for strategy in s.strategies),
                s.instances,
                "yes" if s.auction else "no",
                s.description,
            )
            for s in list_scenarios()
        ]
        print(
            format_table(
                ["name", "strategies", "instances", "auction", "summary"], rows
            )
        )
        return 0
    scenario = get_scenario(args.name)
    overrides: dict = {}
    if args.instances is not None:
        overrides["instances"] = args.instances
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.threshold is not None:
        overrides["detection_threshold"] = args.threshold
    if args.algorithm is not None:
        overrides["algorithm"] = args.algorithm
    if overrides:
        scenario = scenario.evolve(**overrides)
    ledger = _ledger_from(args)
    start = time.perf_counter()
    result = run_scenario(scenario, parallel=args.parallel, ledger=ledger)
    elapsed = time.perf_counter() - start
    rows = [
        [name, stats.mean, stats.std, stats.ci95_low, stats.ci95_high]
        for name, stats in sorted(result.summary().items())
    ]
    print(f"scenario {scenario.name!r}: {scenario.description}")
    print(
        f"strategies: {', '.join(s.name for s in scenario.strategies)} | "
        f"world: {scenario.world.n_tasks} tasks x {scenario.world.n_workers} "
        f"workers | instances: {scenario.instances} | seed: {scenario.base_seed}"
    )
    print()
    print(format_table(["metric", "mean", "std", "ci95 low", "ci95 high"], rows))
    print(f"\n{scenario.instances} instances in {elapsed:.2f}s")
    if ledger is not None:
        _print_ledger_stats(ledger)
    return 0


def _format_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    if seconds < 172800:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def _cmd_ledger(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.store)
    if args.ledger_command == "list":
        entries = ledger.entries(args.kind)
        now = time.time()
        rows = [
            [
                entry.fingerprint[:16],
                entry.kind,
                entry.experiment_id,
                entry.detail,
                entry.size_bytes,
                _format_age(max(now - entry.modified_at, 0.0)),
            ]
            for entry in entries[: args.limit]
        ]
        print(format_table(
            ["fingerprint", "kind", "experiment", "detail", "bytes", "age"], rows
        ))
        # Footer totals describe the *listed* (kind-filtered) entries,
        # so "N of M shown" always refers to the same population.
        per_kind: dict[str, int] = {}
        for entry in entries:
            per_kind[entry.kind] = per_kind.get(entry.kind, 0) + 1
        shown = min(len(entries), args.limit)
        print(
            f"\n{shown} of {len(entries)} entries shown; "
            f"{sum(e.size_bytes for e in entries)} bytes total in {ledger.root}"
            + (
                f" ({', '.join(f'{k}: {n}' for k, n in sorted(per_kind.items()))})"
                if per_kind
                else ""
            )
        )
        return 0
    if args.ledger_command == "show":
        payload = ledger.show(args.fingerprint)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    # gc
    if args.older_than is None and not args.all:
        raise SystemExit(
            "refusing to delete the whole store without --all "
            "(or pass --older-than DAYS)"
        )
    removed, freed = ledger.gc(older_than_days=args.older_than, kind=args.kind)
    print(f"removed {removed} entries ({freed} bytes) from {ledger.root}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.url is not None:
        if args.json:
            raise SystemExit(
                "--json reads the local registry; drop it when scraping --url"
            )
        url = f"{args.url.rstrip('/')}/metrics"
        try:
            with urllib.request.urlopen(url) as response:
                text = response.read().decode("utf-8")
        except urllib.error.URLError as exc:
            raise SystemExit(
                f"GET {url} failed: {getattr(exc, 'reason', exc)} "
                f"(is 'repro serve' running?)"
            ) from exc
        sys.stdout.write(text)
        return 0
    registry = get_registry()
    if args.json:
        print(json.dumps(registry.as_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_prometheus(registry))
    return 0


def _compact(value: object) -> str:
    """One-cell rendering of a trace event field."""
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "list":
        entries = list_traces(args.dir)
        now = time.time()
        rows = [
            [
                entry.fingerprint[:16],
                entry.events,
                entry.size_bytes,
                _format_age(max(now - entry.modified_at, 0.0)),
            ]
            for entry in entries[: args.limit]
        ]
        print(format_table(["trace", "events", "bytes", "age"], rows))
        shown = min(len(entries), args.limit)
        root = args.dir if args.dir is not None else default_trace_dir()
        print(f"\n{shown} of {len(entries)} traces in {root}")
        return 0
    # show
    path = find_trace(args.fingerprint, args.dir)
    events = read_trace(path)
    total = len(events)
    if args.limit:
        events = events[: args.limit]
    if args.json:
        for event in events:
            print(json.dumps(event, sort_keys=True))
        return 0
    rows = []
    for event in events:
        detail = ", ".join(
            f"{name}={_compact(value)}"
            for name, value in sorted(event.items())
            if name not in ("event", "seq", "elapsed_s")
        )
        rows.append(
            [
                event.get("seq", ""),
                f"{event.get('elapsed_s', 0.0):.3f}",
                event.get("event", "?"),
                detail if len(detail) <= 100 else detail[:97] + "...",
            ]
        )
    print(format_table(["seq", "t+s", "event", "detail"], rows))
    shown = len(events)
    print(f"\n{shown} of {total} events in {path}")
    return 0


@contextlib.contextmanager
def _maybe_trace(args: argparse.Namespace, key: dict):
    """Open a run trace when ``--trace`` was passed; else a no-op."""
    if not getattr(args, "trace", False):
        yield None
        return
    with trace_run(key, directory=args.trace_dir) as writer:
        yield writer


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    A library error ends the process with its one-line message (exit
    status 1), not a traceback.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        rows = [
            (e.experiment_id, e.paper_reference, e.summary)
            for e in list_experiments()
        ]
        print(format_table(["id", "paper", "summary"], rows))
        return 0
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "truth":
        return _cmd_truth(args)
    if args.command == "algo":
        return _cmd_algo(args)
    if args.command == "auction":
        return _cmd_auction(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "ingest":
        return _cmd_ingest(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "ledger":
        return _cmd_ledger(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "trace":
        return _cmd_trace(args)
    ledger = _ledger_from(args)
    # The trace is keyed by the run request; instance-level events inside
    # carry the ledger's own row fingerprints when --cache is on.
    key = {
        "command": "run",
        "experiment": args.experiment,
        "scale": args.scale,
        "instances": args.instances,
        "seed": args.seed,
    }
    with _maybe_trace(args, key) as writer:
        if args.experiment == "all":
            for experiment in list_experiments():
                _run_one(experiment.experiment_id, args, ledger)
        else:
            _run_one(args.experiment, args, ledger)
    if writer is not None:
        print(f"trace: {writer.path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
