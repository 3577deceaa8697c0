"""Claim batches: the unit of streaming ingestion.

A :class:`ClaimBatch` is one append-only delta against a campaign —
newly published tasks, newly registered workers, and new ``(worker,
task) -> value`` claims.  A batch checks nothing, so it can be built far
from the store (from a JSON request body or a CSV replay): applying it
validates it against the campaign index, once
(:meth:`repro.core.indexing.DatasetIndex.extended`).

:func:`replay_batches` turns an archived dataset into a batch sequence
(tasks published in dataset order, workers registered on first claim),
which is how the streaming benchmark and ``repro ingest`` drive the
online engine from recorded campaigns.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Integral

from ..errors import DataFormatError
from ..types import Dataset, Task, WorkerProfile

__all__ = [
    "ClaimBatch",
    "batch_from_json",
    "batch_to_json",
    "replay_batches",
    "task_from_spec",
    "worker_from_spec",
]


@dataclass(frozen=True)
class ClaimBatch:
    """One append-only delta of a streaming campaign.

    Parameters
    ----------
    claims:
        ``(worker_id, task_id) -> value`` for the new claims.  May
        reference tasks/workers already known to the campaign or ones
        introduced by this batch.
    tasks:
        Tasks published with this batch (ids must be new to the
        campaign).
    workers:
        Workers registering with this batch (ids must be new).
    """

    claims: Mapping[tuple[str, str], str] = field(default_factory=dict)
    tasks: tuple[Task, ...] = ()
    workers: tuple[WorkerProfile, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "claims", dict(self.claims))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "workers", tuple(self.workers))

    @property
    def n_claims(self) -> int:
        return len(self.claims)

    @property
    def is_empty(self) -> bool:
        return not (self.claims or self.tasks or self.workers)


def replay_batches(dataset: Dataset, n_batches: int) -> list[ClaimBatch]:
    """Split an archived campaign into a streaming batch sequence.

    Tasks are published in dataset order, sliced into ``n_batches``
    near-equal groups; each batch carries all claims on its tasks, and
    every worker registers with the first batch it claims in (copy
    sources referencing workers not yet registered are deferred to the
    profile's registration batch — the extension path validates sources
    against already-known workers, so the batch that introduces a copier
    must follow its sources or carry them).

    To keep every batch self-consistent, workers are registered in
    dataset order the first time *any* of their claims (or any copier
    pointing at them) appears.
    """
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    n_batches = min(n_batches, max(dataset.n_tasks, 1))
    boundaries = [
        round(k * dataset.n_tasks / n_batches) for k in range(n_batches + 1)
    ]
    worker_order = [w.worker_id for w in dataset.workers]
    registered: set[str] = set()
    batches: list[ClaimBatch] = []
    by_task = dataset.claims_by_task
    for k in range(n_batches):
        tasks = dataset.tasks[boundaries[k] : boundaries[k + 1]]
        claims = {
            (worker_id, task.task_id): value
            for task in tasks
            for worker_id, value in by_task[task.task_id].items()
        }
        # Register claimants plus, transitively, the sources their
        # profiles point at (a copier must not precede its source).
        needed = {worker_id for (worker_id, _) in claims} - registered
        frontier = list(needed)
        while frontier:
            worker = dataset.worker_by_id[frontier.pop()]
            for source in worker.sources:
                if source not in registered and source not in needed:
                    needed.add(source)
                    frontier.append(source)
        if k == n_batches - 1:
            needed |= set(worker_order) - registered
        workers = tuple(
            dataset.worker_by_id[worker_id]
            for worker_id in worker_order
            if worker_id in needed
        )
        registered |= needed
        batches.append(ClaimBatch(claims=claims, tasks=tasks, workers=workers))
    return batches


# ----------------------------------------------------------------------
# JSON wire format (shared by the HTTP server and the replay client)
# ----------------------------------------------------------------------


def coerce_number(spec: Mapping, key: str, default: float) -> float:
    """Read an optional numeric field, mapping junk to DataFormatError.

    Booleans, strings and non-finite values (JSON ``NaN``/``Infinity``)
    are junk too: ``float(True)`` is 1.0, ``float("2.5")`` would accept
    a quoted number the wire format never sends, and a non-finite
    number would otherwise reach the auction as a bid.
    """
    value = spec.get(key, default)
    if isinstance(value, (bool, str)):
        raise DataFormatError(f"field {key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(
            f"field {key!r} must be a number, got {value!r}"
        ) from exc
    if not math.isfinite(number):
        raise DataFormatError(f"field {key!r} must be finite, got {value!r}")
    return number


def is_integer(value: object) -> bool:
    """An integer and not a bool: :func:`coerce_integer`'s rule for
    values a library caller hands in.

    Truncating a float changes what the call means: a seq of 2.5 would
    dedup as 2, and a cadence of 2.5 is journaled as written and
    replayed as 2.
    """
    return isinstance(value, Integral) and not isinstance(value, bool)


def coerce_integer(spec: Mapping, key: str, default: int) -> int:
    """Read an optional integer field, mapping junk to DataFormatError.

    Booleans, strings and non-integral numbers are junk: truncating
    ``2.5`` to ``2`` would turn a new ingest seq into a duplicate and
    drop it.
    """
    value = spec.get(key, default)
    if isinstance(value, (bool, str)):
        raise DataFormatError(f"field {key!r} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    number = coerce_number(spec, key, default)
    if not number.is_integer():
        raise DataFormatError(f"field {key!r} must be an integer, got {value!r}")
    return int(number)


def _array(spec: Mapping, key: str) -> list | tuple:
    """The optional field ``key`` (default empty), which must be an array."""
    value = spec.get(key, ())
    if not isinstance(value, (list, tuple)):
        raise DataFormatError(f"field {key!r} must be an array, got {value!r}")
    return value


def _string(value, what: str) -> str:
    """``value``, which must be a string (never stringified)."""
    if not isinstance(value, str):
        raise DataFormatError(f"{what} must be a string, got {value!r}")
    return value


def _boolean(spec: Mapping, key: str) -> bool:
    """The optional field ``key`` (default false), which must be a JSON
    boolean: ``bool("false")`` is true."""
    value = spec.get(key, False)
    if not isinstance(value, bool):
        raise DataFormatError(f"field {key!r} must be a boolean, got {value!r}")
    return value


def task_from_spec(spec: Mapping) -> Task:
    """Build a :class:`Task` from its JSON object form."""
    if not isinstance(spec, Mapping) or "task_id" not in spec:
        raise DataFormatError(f"task spec must be an object with task_id: {spec!r}")
    truth = spec.get("truth")
    return Task(
        task_id=_string(spec["task_id"], "task_id"),
        domain=tuple(_string(v, "domain value") for v in _array(spec, "domain")),
        requirement=coerce_number(spec, "requirement", 1.0),
        value=coerce_number(spec, "value", 0.0),
        truth=None if truth is None else _string(truth, "truth"),
    )


def worker_from_spec(spec: Mapping) -> WorkerProfile:
    """Build a :class:`WorkerProfile` from its JSON object form."""
    if not isinstance(spec, Mapping) or "worker_id" not in spec:
        raise DataFormatError(
            f"worker spec must be an object with worker_id: {spec!r}"
        )
    return WorkerProfile(
        worker_id=_string(spec["worker_id"], "worker_id"),
        cost=coerce_number(spec, "cost", 1.0),
        reliability=coerce_number(spec, "reliability", 0.7),
        is_copier=_boolean(spec, "is_copier"),
        sources=tuple(_string(s, "source") for s in _array(spec, "sources")),
        copy_prob=coerce_number(spec, "copy_prob", 0.0),
    )


def batch_from_json(payload: Mapping) -> ClaimBatch:
    """Decode ``{"tasks": [...], "workers": [...], "claims": [...]}``.

    Each claim is ``{"worker": ..., "task": ..., "value": ...}``.
    Raises :class:`~repro.errors.DataFormatError` on malformed input so
    the server maps it to a 400 response: the three fields must be
    arrays, and ids and values strings.
    """
    if not isinstance(payload, Mapping):
        raise DataFormatError("batch payload must be a JSON object")
    claims: dict[tuple[str, str], str] = {}
    for row in _array(payload, "claims"):
        if not isinstance(row, Mapping) or not {"worker", "task", "value"} <= set(row):
            raise DataFormatError(
                f"claim row must have worker/task/value fields: {row!r}"
            )
        key = (_string(row["worker"], "claim worker"), _string(row["task"], "claim task"))
        if key in claims:
            raise DataFormatError(
                f"duplicate claim in batch: worker {key[0]!r} on task {key[1]!r}"
            )
        claims[key] = _string(row["value"], "claim value")
    return ClaimBatch(
        claims=claims,
        tasks=tuple(task_from_spec(s) for s in _array(payload, "tasks")),
        workers=tuple(worker_from_spec(s) for s in _array(payload, "workers")),
    )


def batch_to_json(batch: ClaimBatch, *, include_truth: bool = False) -> dict:
    """Encode a batch into the wire format accepted by the server.

    Claims keep the batch's arrival order: the decoded batch builds the
    same claims dict, and dict order feeds the index extension's claim
    sequence, so a batch sent over HTTP or replayed from the journal
    reaches the estimator exactly as one applied in-process.
    """
    tasks = []
    for task in batch.tasks:
        spec: dict = {"task_id": task.task_id}
        if task.domain:
            spec["domain"] = list(task.domain)
        spec["requirement"] = task.requirement
        spec["value"] = task.value
        if include_truth and task.truth is not None:
            spec["truth"] = task.truth
        tasks.append(spec)
    workers = [
        {
            "worker_id": worker.worker_id,
            "cost": worker.cost,
            "reliability": worker.reliability,
            "is_copier": worker.is_copier,
            "sources": list(worker.sources),
            "copy_prob": worker.copy_prob,
        }
        for worker in batch.workers
    ]
    claims = [
        {"worker": worker_id, "task": task_id, "value": value}
        for (worker_id, task_id), value in batch.claims.items()
    ]
    return {"tasks": tasks, "workers": workers, "claims": claims}
