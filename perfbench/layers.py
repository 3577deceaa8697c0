"""Per-layer metrics from recorded spans.

A layer's self time is the summed duration of its spans minus the part
covered by their direct child spans.  Every time and count is divided
by the number of units of work the traced run measured (one cold solve,
one 20-batch replay, one IMC2 run, one client campaign), so runs that
fit a different number of units stay comparable.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import (
    AUCTION_RUN,
    AUCTION_SELECT,
    CLIENT_REQUEST,
    DATE_MATERIALIZE,
    DATE_RUN,
    ENGINE_DEPENDENCE,
    ENGINE_INDEPENDENCE,
    ENGINE_POSTERIOR,
    ENGINE_SUPPORT,
    INDEX_BUILD,
    INDEX_EXTEND,
    INDEX_VALIDATE,
    JOURNAL_APPEND,
    ONLINE_INGEST,
    SERVER_DECODE,
    SERVER_HANDLE,
    SOAC_BUILD,
    STORE_INGEST,
)

#: Every per-layer metric with its unit, in report order.  Idle layers
#: read 0 on a workload; BENCHMARK.json lists the same names.
PER_LAYER = (
    ("indexing.build_s", "s"),
    ("indexing.extend_s", "s"),
    ("indexing.validate_s", "s"),
    ("indexing.claims", "count"),
    ("indexing.pair_rows", "count"),
    ("engine.dependence_s", "s"),
    ("engine.independence_s", "s"),
    ("engine.posterior_s", "s"),
    ("engine.support_s", "s"),
    ("engine.iterations", "count"),
    ("date.materialize_s", "s"),
    ("date.loop_self_s", "s"),
    ("online.subrun_s", "s"),
    ("online.ingest_self_s", "s"),
    ("online.dirty_frac", "ratio"),
    ("online.campaign_tasks", "count"),
    ("online.subrun_iterations", "count"),
    ("journal.append_s", "s"),
    ("journal.bytes", "bytes"),
    ("store.ingest_self_s", "s"),
    ("server.handle_s", "s"),
    ("server.decode_s", "s"),
    ("http.transport_s", "s"),
    ("http.request_bytes", "bytes"),
    ("http.response_bytes", "bytes"),
    ("client.retries", "count"),
    ("soac.build_s", "s"),
    ("auction.select_s", "s"),
    ("auction.payment_s", "s"),
    ("auction.winners", "count"),
    ("auction.monopolists", "count"),
    ("unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

#: Self-time metrics read straight off one span name.
_SELF_TIME = {
    "indexing.build_s": INDEX_BUILD,
    "indexing.extend_s": INDEX_EXTEND,
    "indexing.validate_s": INDEX_VALIDATE,
    "engine.dependence_s": ENGINE_DEPENDENCE,
    "engine.independence_s": ENGINE_INDEPENDENCE,
    "engine.posterior_s": ENGINE_POSTERIOR,
    "engine.support_s": ENGINE_SUPPORT,
    "date.materialize_s": DATE_MATERIALIZE,
    "date.loop_self_s": DATE_RUN,
    "online.ingest_self_s": ONLINE_INGEST,
    "journal.append_s": JOURNAL_APPEND,
    "store.ingest_self_s": STORE_INGEST,
    "server.decode_s": SERVER_DECODE,
    "soac.build_s": SOAC_BUILD,
    "auction.select_s": AUCTION_SELECT,
    # run_auction's only traced child is the selection loop, so its
    # self time is the payment phase.
    "auction.payment_s": AUCTION_RUN,
}

#: Counts recorded by the wrappers, reported per unit of work.
_COUNTS = (
    "indexing.claims",
    "indexing.pair_rows",
    "engine.iterations",
    "online.campaign_tasks",
    "online.subrun_iterations",
    "journal.bytes",
    "http.request_bytes",
    "http.response_bytes",
    "client.retries",
    "auction.winners",
    "auction.monopolists",
)


def span_table(spans) -> dict[str, dict[str, float]]:
    """``name -> {calls, inclusive_s, self_s}`` over one process's spans."""
    child_time: dict[int, float] = defaultdict(float)
    for _id, _name, start, end, parent, _run, _thread in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
    )
    for span_id, name, start, end, _parent, _run, _thread in spans:
        row = table[name]
        row["calls"] += 1
        row["inclusive_s"] += end - start
        row["self_s"] += end - start - child_time[span_id]
    return dict(table)


def _subrun_seconds(spans) -> float:
    """Inclusive time of DATE runs started inside an online ingest."""
    by_id = {span[0]: span for span in spans}
    total = 0.0
    for span in spans:
        if span[1] != DATE_RUN:
            continue
        parent = span[4]
        while parent >= 0:
            ancestor = by_id[parent]
            if ancestor[1] == ONLINE_INGEST:
                total += span[3] - span[2]
                break
            parent = ancestor[4]
    return total


def layer_metrics(
    local_spans,
    counts: dict[str, float],
    *,
    units: int,
    op_seconds: float,
    overhead_frac: float,
    server_spans=(),
) -> tuple[dict[str, float], dict]:
    """Per-layer metrics plus the traced-run report.

    ``local_spans`` come from the benchmark process, ``server_spans``
    from a separate server process (already cut to the measured
    window).  ``op_seconds`` is the summed wall time of the measured
    operations; what the benchmark process's top-level spans do not
    cover of it is ``unattributed_s``.
    """
    local = span_table(local_spans)
    remote = span_table(server_spans)
    merged: dict[str, dict[str, float]] = {}
    for table in (local, remote):
        for name, row in table.items():
            into = merged.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                into[key] += value

    def self_s(name: str) -> float:
        return merged.get(name, {}).get("self_s", 0.0)

    def inclusive_s(name: str) -> float:
        return merged.get(name, {}).get("inclusive_s", 0.0)

    totals: dict[str, float] = {key: self_s(name) for key, name in _SELF_TIME.items()}
    totals["online.subrun_s"] = _subrun_seconds(local_spans) + _subrun_seconds(server_spans)
    totals["server.handle_s"] = inclusive_s(SERVER_HANDLE)
    round_trip = inclusive_s(CLIENT_REQUEST)
    transport = round_trip - inclusive_s(SERVER_HANDLE)
    totals["http.transport_s"] = transport
    top_level = sum(end - start for _i, _n, start, end, parent, _r, _t in local_spans if parent < 0)
    totals["unattributed_s"] = op_seconds - top_level
    for name in _COUNTS:
        totals[name] = counts.get(name, 0.0)

    metrics = {name: totals[name] / units for name, _unit in PER_LAYER if name in totals}
    dirty = counts.get("online.dirty_tasks", 0.0)
    campaign_tasks = counts.get("online.campaign_tasks", 0.0)
    metrics["online.dirty_frac"] = dirty / campaign_tasks if campaign_tasks else 0.0
    metrics["trace.overhead_frac"] = overhead_frac

    shares = {
        name: {"share": row["self_s"] / op_seconds if op_seconds else 0.0,
               "base": "summed wall time of the measured operations (s)",
               "base_value": op_seconds}
        for name, row in merged.items()
    }
    ratios = {
        "online.dirty_frac": {
            "value": metrics["online.dirty_frac"],
            "numerator": "dirty tasks re-estimated, summed over ingests",
            "numerator_value": dirty,
            "base": "campaign tasks after each ingest, summed over ingests",
            "base_value": campaign_tasks,
        },
        "http.transport_share": {
            "value": transport / round_trip if round_trip else 0.0,
            "base": "client round-trip time (s)",
            "base_value": round_trip,
        },
        "auction.payment_share": {
            "value": totals["auction.payment_s"] / op_seconds if op_seconds else 0.0,
            "base": "summed wall time of the measured operations (s)",
            "base_value": op_seconds,
        },
    }
    report = {
        "units": units,
        "layers": {name: {**row, **shares[name]} for name, row in sorted(merged.items())},
        "ratios": ratios,
        "unattributed_s": totals["unattributed_s"],
    }
    return metrics, report
