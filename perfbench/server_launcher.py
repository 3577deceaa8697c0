"""Start ``repro serve`` with a journal directory, optionally traced.

Usage::

    python3 perfbench/server_launcher.py --journal-dir DIR --stats-out FILE [--trace]

Builds the same journaled :class:`CampaignStore` as ``repro serve
--journal-dir`` and calls :func:`repro.streaming.server.serve` on an
ephemeral port (printed on stdout by ``serve``).  With ``--trace`` the
layer wrappers of :mod:`tracer` are installed first.  On a graceful
SIGTERM ``serve`` returns and this launcher writes its peak RSS, and
the spans when traced, to ``--stats-out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--journal-dir", required=True)
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from repro.streaming.campaign import CampaignStore
    from repro.streaming.server import serve

    from tracer import Tracer, instrument

    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
    store = CampaignStore(journal_dir=args.journal_dir)
    try:
        serve("127.0.0.1", 0, store=store, quiet=True)
    finally:
        stats = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if tracer is not None:
            stats["spans"] = tracer.spans
            stats["counts"] = dict(tracer.counts)
        with open(args.stats_out, "w") as handle:
            json.dump(stats, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
