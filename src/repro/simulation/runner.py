"""Seeded multi-instance execution.

:func:`run_instances` is the harness core: call a metric function once
per seeded instance and collect the per-instance metric rows into an
:class:`InstanceTable`, which aggregates each column into
:class:`~repro.simulation.stats.SummaryStats`.  Experiments (and users)
supply only the body — "given instance ``k``, produce numbers".

With a :class:`~repro.artifacts.RunLedger` and a :class:`~repro.
artifacts.RunKey` the harness becomes *resumable at instance
granularity*: each instance row is looked up under its content
fingerprint before anything is submitted to the process pool, only the
missing instances are computed (and persisted as they finish), and the
assembled table is bit-identical to a cold run because rows round-trip
through JSON losslessly.  Since instance seeds do not depend on the
instance *count* (``SeedSequence.spawn`` keys each child by its index
alone), growing ``instances`` reuses the already-banked prefix.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError, MetricMismatchError
from ..obs import trace as obs_trace
from .executor import parallel_imap
from .stats import SummaryStats, summarize

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..artifacts import RunKey, RunLedger

__all__ = ["InstanceTable", "run_instances"]

#: Metric function: (instance index) -> {metric name: value}.
MetricFn = Callable[[int], Mapping[str, float]]


@dataclass(frozen=True)
class InstanceTable:
    """Per-instance metric rows plus aggregation helpers."""

    rows: tuple[dict[str, float], ...]

    def column(self, name: str) -> list[float]:
        """All values of one metric, in instance order."""
        try:
            return [row[name] for row in self.rows]
        except KeyError:
            raise KeyError(
                f"metric {name!r} missing from at least one instance row; "
                f"available: {sorted(self.metric_names)}"
            ) from None

    @property
    def metric_names(self) -> set[str]:
        """The metric names shared by all rows.

        Every instance must report exactly the same metrics; a ragged
        table raises :class:`~repro.errors.MetricMismatchError` naming
        the first offending instance and its missing/unexpected metrics
        instead of silently intersecting columns away.
        """
        if not self.rows:
            return set()
        names = set(self.rows[0])
        for k, row in enumerate(self.rows[1:], start=1):
            if set(row) != names:
                missing = sorted(names - set(row))
                unexpected = sorted(set(row) - names)
                parts = []
                if missing:
                    parts.append(f"missing {missing}")
                if unexpected:
                    parts.append(f"unexpected {unexpected}")
                raise MetricMismatchError(
                    f"instance {k} reports different metrics than instance 0: "
                    f"{'; '.join(parts)} (instance 0 reported {sorted(names)})"
                )
        return names

    def summary(self) -> dict[str, SummaryStats]:
        """Summarize every common metric across instances."""
        return {name: summarize(self.column(name)) for name in sorted(self.metric_names)}

    def mean(self, name: str) -> float:
        """Mean of one metric across instances."""
        return summarize(self.column(name)).mean

    @property
    def n_instances(self) -> int:
        return len(self.rows)


def _checked(raw: Mapping[str, float], k: int) -> dict[str, float]:
    row = dict(raw)
    if not row:
        raise ValueError(f"metric function returned no metrics for instance {k}")
    return row


def run_instances(
    instances: int,
    metric_fn: MetricFn,
    *,
    parallel: int | None = 1,
    ledger: "RunLedger | None" = None,
    key: "RunKey | None" = None,
) -> InstanceTable:
    """Run ``metric_fn`` for instance indexes ``0..instances-1``.

    The metric function is responsible for deriving its own per-instance
    seed (typically via :meth:`ExperimentConfig.dataset_for`), which is
    what makes the fan-out deterministic: ``parallel=N`` distributes the
    instances over an N-worker process pool
    (:func:`~repro.simulation.executor.parallel_imap`) and yields a table
    bit-identical to the serial run.  With ``parallel > 1`` the metric
    function must be picklable (a module-level function or a partial of
    one).

    ``ledger`` + ``key`` route the run through the content-addressed
    store: cached instance rows are read back instead of recomputed,
    only the missing indexes hit the pool, and freshly computed rows
    are persisted as they arrive.  ``key.payload`` must describe
    everything ``metric_fn`` reads *except* the instance count (so
    prefixes stay shared across differently sized runs).  Without a
    ledger every index is missing and the same loop runs, reading and
    banking nothing.
    """
    if instances < 1:
        raise ValueError("instances must be >= 1")
    if ledger is not None and key is None:
        raise ConfigurationError(
            "run_instances got a ledger but no key declaring the work"
        )
    banked: list[dict[str, float] | None] = [
        None if ledger is None else ledger.get_row(key, k)
        for k in range(instances)
    ]
    missing = [k for k, row in enumerate(banked) if row is None]
    writer = obs_trace.active() if ledger is not None else None
    if writer is not None:
        # Each instance event carries the ledger's own row digest — the
        # trace↔provenance join (DESIGN.md §13).
        from ..artifacts.ledger import row_fingerprint

        for k, row in enumerate(banked):
            if row is not None:
                writer.emit(
                    "instance_row",
                    instance=k,
                    fingerprint=row_fingerprint(key, k),
                    cached=True,
                )
    # Stream results back and bank each row the moment it exists: an
    # interrupted run keeps its finished prefix, and the next run
    # resumes at the first row it never banked.
    with obs_trace.span(
        "run_instances", instances=instances, cached=instances - len(missing)
    ):
        for k, raw in zip(
            missing, parallel_imap(metric_fn, missing, parallel=parallel)
        ):
            row = _checked(raw, k)
            banked[k] = row
            if ledger is not None:
                ledger.put_row(key, k, row)
            if writer is not None:
                writer.emit(
                    "instance_row",
                    instance=k,
                    fingerprint=row_fingerprint(key, k),
                    cached=False,
                )
    return InstanceTable(
        rows=tuple(_checked(row, k) for k, row in enumerate(banked))
    )
