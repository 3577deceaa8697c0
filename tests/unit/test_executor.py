"""Unit tests for the executor: serial and pooled fan-out, the
broken-pool retry, and the metrics every fan-out records."""

from __future__ import annotations

import os
import time
from functools import partial

import pytest

from repro.artifacts import RunKey, RunLedger
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, set_registry
from repro.simulation.executor import (
    available_cpus,
    parallel_imap,
    parallel_map,
    resolve_parallel,
)
from repro.simulation.runner import run_instances

#: The item whose first evaluation kills its pool worker.
CRASH_AT = 3

#: Every metric family one fan-out records, serial or pooled.
EXECUTOR_FAMILIES = {
    "executor_instance_seconds",
    "executor_items_total",
    "executor_map_seconds",
    "executor_pool_utilization",
    "executor_pool_workers",
}


def _double(x: int) -> int:
    return 2 * x


def _sleepy_double(x: int) -> int:
    # Larger items finish later, so completion order differs from
    # submission order whenever they are submitted first.
    time.sleep(0.02 * x)
    return 2 * x


def _crash_once(item: tuple[int, str]) -> int:
    """``2 * x``, except that the first call for ``CRASH_AT`` kills its
    process.  The marker file that records the crash travels inside the
    item: cached pool workers keep the environment they were spawned
    with."""
    x, marker = item
    if x == CRASH_AT and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return 2 * x


def _crash_once_row(marker: str, k: int) -> dict[str, float]:
    return {"value": float(_crash_once((k, marker)))}


def _row(k: int) -> dict[str, float]:
    return {"value": k * 1.25}


class _CountingLedger(RunLedger):
    """A ledger that records the instance index of every banked row."""

    def __init__(self, root):
        super().__init__(root)
        self.banked: list[int] = []

    def put_row(self, key, instance, row):
        self.banked.append(instance)
        return super().put_row(key, instance, row)


@pytest.fixture
def telemetry():
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


class TestResolveParallel:
    def test_none_means_all_cpus(self):
        assert resolve_parallel(None) == max(available_cpus(), 1)

    def test_explicit_passthrough(self):
        assert resolve_parallel(3) == 3

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_parallel(bad)


class TestSerialPath:
    def test_matches_list_comprehension(self):
        items = list(range(7))
        assert parallel_map(_double, items, parallel=1) == [2 * x for x in items]

    def test_empty_items(self):
        assert parallel_map(_double, [], parallel=1) == []

    def test_single_item_never_spawns(self):
        # One item short-circuits to in-process execution even with
        # parallel > 1 — closures stay legal in that case.
        assert parallel_map(lambda x: x + 1, [41], parallel=8) == [42]

    def test_preserves_order(self):
        items = [5, 3, 9, 1]
        assert parallel_map(_double, items, parallel=1) == [10, 6, 18, 2]


class TestPooledPath:
    @pytest.mark.parametrize("fan_out", [parallel_map, parallel_imap])
    def test_preserves_submission_order(self, fan_out):
        items = [5, 0, 3, 1]
        assert list(fan_out(_sleepy_double, items, parallel=2)) == [
            10, 0, 6, 2
        ]


class TestBrokenPool:
    """A killed pool worker re-runs, once, only the items not yet
    yielded, on a fresh pool."""

    @pytest.mark.parametrize("fan_out", [parallel_map, parallel_imap])
    def test_fan_out_returns_the_serial_results(self, tmp_path, fan_out):
        marker = str(tmp_path / "crashed")
        items = [(x, marker) for x in range(6)]
        assert list(fan_out(_crash_once, items, parallel=2)) == [
            _double(x) for x in range(6)
        ]
        assert os.path.exists(marker)

    def test_ledger_run_banks_each_row_once(self, tmp_path):
        marker = str(tmp_path / "crashed")
        ledger = _CountingLedger(tmp_path / "store")
        table = run_instances(
            6,
            partial(_crash_once_row, marker),
            parallel=2,
            ledger=ledger,
            key=RunKey("broken-pool", {}),
        )
        assert os.path.exists(marker)
        assert table.rows == tuple(
            {"value": float(_double(k))} for k in range(6)
        )
        assert sorted(ledger.banked) == list(range(6))


class TestMetrics:
    @pytest.mark.parametrize("with_ledger", [False, True])
    @pytest.mark.parametrize("parallel", [1, 2])
    def test_every_fan_out_records_the_same_families(
        self, tmp_path, telemetry, parallel, with_ledger
    ):
        ledger = RunLedger(tmp_path / "store") if with_ledger else None
        run_instances(
            4, _row, parallel=parallel, ledger=ledger, key=RunKey("m", {})
        )
        families = {
            family.name
            for family in telemetry.collect()
            if family.name.startswith("executor_")
        }
        assert families == EXECUTOR_FAMILIES
        mode = "serial" if parallel == 1 else "pooled"
        assert telemetry.counter(
            "executor_items_total", labels={"mode": mode}
        ).value == 4.0
        assert telemetry.timer(
            "executor_map_seconds", labels={"mode": mode}
        ).count == 1

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_consumer_stopping_at_the_last_item(self, telemetry, parallel):
        # zip() stops once its first iterable runs out, so it never asks
        # the generator for one more item: the fan-out's bookkeeping
        # must not wait for that request.
        results = parallel_imap(_double, range(3), parallel=parallel)
        assert [value for _, value in zip(range(3), results)] == [0, 2, 4]
        mode = "serial" if parallel == 1 else "pooled"
        assert telemetry.counter(
            "executor_items_total", labels={"mode": mode}
        ).value == 3.0
        assert telemetry.timer(
            "executor_map_seconds", labels={"mode": mode}
        ).count == 1
