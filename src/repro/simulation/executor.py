"""Seeded, deterministic process-pool fan-out.

:func:`parallel_imap` is the one parallel primitive the whole experiment
stack runs on: :func:`~repro.simulation.runner.run_instances`,
:func:`~repro.simulation.sweep.sweep_series`, the scenario runner, and
the figure runners all fan out through it, with or without a run
ledger, and :func:`parallel_map` is its list form.  The contract is
strict:

- **Bit-identical to serial.**  ``parallel_map(fn, items, parallel=N)``
  returns exactly ``[fn(item) for item in items]`` for every ``N``.
  Work items carry their own derived seeds (the caller derives them
  from the root seed *before* submission, e.g. via
  :func:`repro.rng.instance_seeds`), so no randomness ever depends on
  scheduling order, worker count, or completion order.
- **Spawn-safe.**  Pools are created with the ``spawn`` start method —
  the only method that is safe under threads and BLAS on every
  platform — so ``fn`` and every argument must be picklable: a
  module-level function, or a :func:`functools.partial` of one over
  picklable configs.  Closures are rejected by pickle with a clear
  error rather than deadlocking.
- **Pool reuse.**  Spawned workers pay a full interpreter + import
  start-up, so pools are cached per worker count and reused across
  calls for the life of the process (shut down atexit).
- **One retry.**  A broken pool is evicted and the items not yet
  yielded re-run once on a fresh pool; a second break propagates.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TypeVar

from ..errors import ConfigurationError
from ..obs.metrics import get_registry

__all__ = [
    "available_cpus",
    "parallel_imap",
    "parallel_map",
    "resolve_parallel",
    "shutdown_pools",
]

T = TypeVar("T")
R = TypeVar("R")

#: Cached pools, keyed by worker count.  Spawned workers re-import the
#: package (~1 s each), so a pool is an asset worth keeping warm.  The
#: lock serializes cache membership only (never the map() calls), so
#: concurrent threads cannot race two pools into one slot and orphan
#: the loser's worker processes.
_POOLS: dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_parallel(parallel: int | None) -> int:
    """Normalize a ``parallel`` argument: ``None`` means all CPUs."""
    if parallel is None:
        return max(available_cpus(), 1)
    if parallel < 1:
        raise ConfigurationError(f"parallel must be >= 1, got {parallel}")
    return parallel


def _pool(workers: int) -> ProcessPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
            _POOLS[workers] = pool
        return pool


def _evict_pool(workers: int, broken: ProcessPoolExecutor) -> None:
    """Drop one cached pool (after it broke); the next use re-creates it.

    Only evicts if the slot still holds the pool the caller saw break —
    a concurrent thread may already have replaced it.
    """
    with _POOLS_LOCK:
        if _POOLS.get(workers) is broken:
            del _POOLS[workers]
    broken.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every cached pool (idempotent; re-use re-creates)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)


class _TimedTask:
    """Picklable wrapper returning ``(fn(item), seconds)`` per item.

    Spawn pools require module-level picklables, so the per-item wall
    clock is measured inside the worker by this class rather than a
    closure.  The wrapped call itself is unchanged, so results stay
    bit-identical.
    """

    def __init__(self, fn: Callable[[T], R]):
        self.fn = fn

    def __call__(self, item: T) -> tuple[R, float]:
        start = time.perf_counter()
        result = self.fn(item)
        return result, time.perf_counter() - start


def _record_map(registry, *, items: int, workers: int, busy: float,
                wall: float) -> None:
    """Registry bookkeeping for one fan-out (registry already enabled)."""
    mode = "serial" if workers == 1 else "pooled"
    registry.counter(
        "executor_items_total",
        "Work items executed through the parallel primitives.",
        labels={"mode": mode},
    ).inc(items)
    registry.timer(
        "executor_map_seconds",
        "Wall time of one fan-out.",
        labels={"mode": mode},
    ).observe(wall)
    registry.gauge(
        "executor_pool_workers",
        "Worker count of the most recent fan-out.",
    ).set(workers)
    if wall > 0.0:
        registry.gauge(
            "executor_pool_utilization",
            "Busy fraction (sum of instance seconds / workers * wall) "
            "of the most recent fan-out.",
        ).set(min(busy / (wall * workers), 1.0))


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    parallel: int | None = 1,
) -> list[R]:
    """``[fn(item) for item in items]``, optionally across processes:
    :func:`parallel_imap` collected into a list."""
    return list(parallel_imap(fn, items, parallel=parallel))


def parallel_imap(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    parallel: int | None = 1,
) -> Iterator[R]:
    """``fn(item)`` for each item, streamed back in submission order.

    ``parallel=1`` (the default) runs in-process — no pool, no
    pickling requirement — and so does a single item.  ``parallel=N``
    fans out over a cached N-worker spawn pool; ``parallel=None`` uses
    every available CPU.  Results arrive in submission order whatever
    the scheduling, so a consumer can persist each one *before* the
    next is needed: an interruption (^C, OOM) loses at most the work
    in flight, never the finished prefix.

    A killed worker (OOM, segfault) permanently breaks its pool.  The
    poisoned pool is evicted and the items not yet yielded re-run once
    on a fresh one — items are pure functions of their arguments, so a
    re-run is safe even for a consumer that already banked the earlier
    results; a second break propagates.
    """
    workers = resolve_parallel(parallel)
    items = list(items)
    if len(items) <= 1:
        workers = 1
    return _fan_out(_TimedTask(fn), items, workers)


def _fan_out(task: _TimedTask, items: list, workers: int) -> Iterator:
    """Body of :func:`parallel_imap`: yield results, record metrics.

    The fan-out's metrics are recorded *before* the last result is
    yielded: a consumer such as ``zip(keys, results)`` never asks for
    one item past the last, so code after the loop might never run.
    """
    if not items:
        return
    registry = get_registry()
    instance_timer = registry.timer(
        "executor_instance_seconds",
        "Wall time of one work item inside the executor.",
    )
    start = time.perf_counter()
    busy = 0.0
    pairs = (
        map(task, items) if workers == 1 else _pooled(task, items, workers)
    )
    for position, (result, seconds) in enumerate(pairs, start=1):
        instance_timer.observe(seconds)
        busy += seconds
        if position == len(items) and registry.enabled:
            _record_map(
                registry, items=len(items), workers=workers, busy=busy,
                wall=time.perf_counter() - start,
            )
        yield result


def _pooled(task: _TimedTask, items: list, workers: int) -> Iterator:
    """``map(task, items)`` over the cached pool, with one retry of the
    items not yet yielded when the pool breaks."""
    done = 0
    for attempt in range(2):
        pool = _pool(workers)
        try:
            for pair in pool.map(task, items[done:]):
                done += 1
                yield pair
            return
        except BrokenProcessPool:
            _evict_pool(workers, pool)
            if attempt:
                raise
            get_registry().counter(
                "executor_pool_retries_total",
                "Broken-pool evictions followed by a fresh-pool retry.",
            ).inc()
