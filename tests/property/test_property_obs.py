"""Bit-identity: instrumentation must never change a result.

The observability spine (DESIGN.md §13) is observation-only — metrics
and traces read values the computation already produced and feed
nothing back.  These tests pin that contract end to end: DATE, the
IMC2 mechanism, and the instance harness produce *exactly* the same outputs with the registry
enabled and a trace active as they do with telemetry off entirely.
"""

from __future__ import annotations

import pytest

from repro import DATE, DateConfig
from repro.mechanism.imc2 import IMC2
from repro.obs import MetricsRegistry, set_registry, trace_run
from repro.simulation.runner import run_instances


@pytest.fixture
def telemetry_off():
    registry = MetricsRegistry(enabled=False)
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


@pytest.fixture
def telemetry_on():
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


def _truth_snapshot(result):
    return (
        dict(result.truths),
        dict(result.confidence),
        dict(result.worker_accuracy),
        result.iterations,
        result.converged,
    )


def _run_date(dataset, **config_kwargs):
    result = DATE(DateConfig(**config_kwargs)).run(dataset)
    return _truth_snapshot(result)


def _run_imc2(dataset):
    outcome = IMC2(DateConfig(), requirement_cap=0.7).run(dataset)
    auction = outcome.auction
    return (
        tuple(auction.winner_ids),
        dict(auction.payments),
        auction.social_cost,
        auction.total_payment,
        _truth_snapshot(outcome.truth),
    )


def test_date_identical_with_registry_and_trace(qlf_small, tmp_path, telemetry_off):
    baseline = _run_date(qlf_small)
    registry = MetricsRegistry(enabled=True)
    set_registry(registry)
    with trace_run({"test": "date"}, directory=tmp_path):
        instrumented = _run_date(qlf_small)
    assert instrumented == baseline
    # The run really was observed, not silently skipped.
    names = {family.name for family in registry.collect()}
    assert "date_runs_total" in names
    assert "date_iteration_seconds" in names


def test_trace_alone_changes_nothing(qlf_small, tmp_path, telemetry_off):
    # Tracing without the registry (the `repro run --trace` default).
    baseline = _run_date(qlf_small)
    with trace_run({"test": "trace-only"}, directory=tmp_path) as writer:
        traced = _run_date(qlf_small)
    assert traced == baseline
    events = writer.path.read_text().splitlines()
    assert len(events) >= 3  # run_start, date events, run_end


def test_imc2_identical_with_registry_and_trace(
    qlf_small, tmp_path, telemetry_off
):
    baseline = _run_imc2(qlf_small)
    set_registry(MetricsRegistry(enabled=True))
    with trace_run({"test": "imc2"}, directory=tmp_path):
        instrumented = _run_imc2(qlf_small)
    assert instrumented == baseline


def _metric_row(k: int) -> dict[str, float]:
    return {"value": k * 1.25, "squared": float(k * k)}


def test_run_instances_identical_under_telemetry(tmp_path, telemetry_off):
    baseline = run_instances(4, _metric_row)
    set_registry(MetricsRegistry(enabled=True))
    with trace_run({"test": "harness"}, directory=tmp_path):
        instrumented = run_instances(4, _metric_row)
    assert instrumented.rows == baseline.rows


def test_parallel_map_identical_under_telemetry(telemetry_on):
    from repro.simulation.executor import parallel_map

    assert parallel_map(_metric_row, range(6), parallel=2) == [
        _metric_row(k) for k in range(6)
    ]
    assert telemetry_on.counter(
        "executor_items_total", labels={"mode": "pooled"}
    ).value == 6.0
