"""Benchmark of the truth-discovery system: four seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload date-10x --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/WORKLOADS.json`` for shapes and the layers
each one leaves idle):

- ``date-10x`` — cold ``DATE().run`` on 10x campaigns, full result;
- ``stream-10x`` — the 10x campaign replayed in 20 batches into
  ``OnlineDATE`` (runnable, but not listed in BENCHMARK.json: its
  spread was too wide; see WORKLOADS.json);
- ``imc2-3x`` — ``IMC2(requirement_cap=0.8).run`` on 3x campaigns;
- ``serve-journaled`` — ``repro serve`` with a journal directory in its
  own process, driven by one closed-loop HTTP client.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed output check exits
with status 1 and prints no result.  With ``--trace 0`` the
metrics are the end-to-end ones, the same names on every workload:

- ``setup_s`` — imports and warm-up, plus the median set-up of one
  input (generation; for ``serve-journaled`` a server start until
  ``/healthz`` is ok);
- ``work_s`` — median wall time of one unit of work: a solve, a
  20-batch replay, an IMC2 run, or one campaign upload over HTTP;
- ``op_ms_p50`` — median latency of one operation: a solve, an IMC2
  run, or one batch ingest;
- ``peak_rss_mb`` — high-water RSS (the server process for
  ``serve-journaled``);
- ``precision`` — estimated truths matching the generated ground truth;
- ``ok_frac`` — operations that succeeded over operations attempted.

With ``--trace 1`` the layer wrappers of ``tracer.py`` are installed and
the metrics are the per-layer ones of ``layers.py``.  Earlier lines
print the environment, the workload's own metric names (``solve_s``,
``ingest_ms_p95``, ...) and, when traced, the per-layer report.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("date-10x", "stream-10x", "imc2-3x", "serve-journaled")


def filesystem_type(path: Path) -> str:
    try:
        out = subprocess.run(
            ["stat", "-f", "-c", "%T", str(path)],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def end_to_end(measured) -> dict[str, tuple[float, str]]:
    ok = 1.0 - measured.failed / measured.attempted
    return {
        "setup_s": (measured.setup_s, "s"),
        "work_s": (statistics.median(measured.work_s), "s"),
        "op_ms_p50": (statistics.median(measured.op_s) * 1e3, "ms"),
        "peak_rss_mb": (measured.peak_rss_mb, "MB"),
        "precision": (measured.precision, "ratio"),
        "ok_frac": (ok, "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="truth-discovery benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources under {src}; nothing to run", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import repro  # noqa: F401  (import cost belongs to set-up)
    from layers import PER_LAYER
    from workloads import WORKLOADS, CheckFailed, Context

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    fs_type = filesystem_type(workdir)
    if fs_type == "tmpfs":
        print("benchmark: warning: the work directory is on tmpfs, fsync is free", file=sys.stderr)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "filesystem": fs_type,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    print(json.dumps({"env": env}), flush=True)

    ctx = Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        started=STARTED, workdir=workdir,
    )
    try:
        measured = WORKLOADS[args.workload](ctx)
    except CheckFailed as exc:
        print(f"benchmark: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    named = dict(measured.named)
    named["setup_s"] = (measured.setup_s, "s")
    named["peak_rss_mb"] = (measured.peak_rss_mb, "MB")
    named["error_frac"] = (measured.failed / measured.attempted, "ratio")
    print(json.dumps({
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "samples": {"units": len(measured.work_s), "ops": len(measured.op_s)},
        "shape": measured.shape,
    }), flush=True)

    if args.trace:
        print(json.dumps({"trace_report": measured.report}), flush=True)
        units = dict(PER_LAYER)
        metrics = {
            name: {"value": measured.per_layer[name], "unit": units[name]}
            for name, _unit in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in end_to_end(measured).items()
        }
    print(json.dumps({
        "correct": True,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
