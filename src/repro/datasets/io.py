"""CSV round-trip for datasets.

A dataset serializes to three flat CSV files in a directory —
``tasks.csv``, ``workers.csv``, ``claims.csv`` — human-inspectable and
diff-friendly, so generated worlds can be archived next to experiment
results and reloaded bit-identically.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ..errors import DataFormatError
from ..types import Dataset, Task, WorkerProfile

__all__ = ["save_dataset", "load_dataset"]

_DOMAIN_SEP = "|"

_TASK_FIELDS = ["task_id", "domain", "requirement", "value", "truth"]
_WORKER_FIELDS = [
    "worker_id",
    "cost",
    "reliability",
    "is_copier",
    "sources",
    "copy_prob",
]
_CLAIM_FIELDS = ["worker_id", "task_id", "value"]


def save_dataset(dataset: Dataset, directory: str | Path) -> Path:
    """Write ``tasks.csv``, ``workers.csv`` and ``claims.csv`` under ``directory``.

    Returns the directory path.  Domain values must not contain the
    ``|`` separator (validated before writing anything).
    """
    directory = Path(directory)
    for task in dataset.tasks:
        for value in task.domain:
            if _DOMAIN_SEP in value:
                raise DataFormatError(
                    f"task {task.task_id}: domain value {value!r} contains "
                    f"the reserved separator {_DOMAIN_SEP!r}"
                )
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / "tasks.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_TASK_FIELDS)
        writer.writeheader()
        for task in dataset.tasks:
            writer.writerow(
                {
                    "task_id": task.task_id,
                    "domain": _DOMAIN_SEP.join(task.domain),
                    "requirement": repr(task.requirement),
                    "value": repr(task.value),
                    "truth": task.truth if task.truth is not None else "",
                }
            )

    with open(directory / "workers.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_WORKER_FIELDS)
        writer.writeheader()
        for worker in dataset.workers:
            writer.writerow(
                {
                    "worker_id": worker.worker_id,
                    "cost": repr(worker.cost),
                    "reliability": repr(worker.reliability),
                    "is_copier": "1" if worker.is_copier else "0",
                    "sources": _DOMAIN_SEP.join(worker.sources),
                    "copy_prob": repr(worker.copy_prob),
                }
            )

    with open(directory / "claims.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CLAIM_FIELDS)
        writer.writeheader()
        for (worker_id, task_id), value in sorted(dataset.claims.items()):
            writer.writerow(
                {"worker_id": worker_id, "task_id": task_id, "value": value}
            )
    return directory


def _read_rows(path: Path, expected_fields: list[str]) -> list[tuple[int, dict[str, str]]]:
    """The rows of one file, each with its line number; a short row
    (a cell missing) is a :class:`DataFormatError` naming its line."""
    if not path.exists():
        raise DataFormatError(f"missing dataset file: {path}")
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or list(reader.fieldnames) != expected_fields:
            raise DataFormatError(
                f"{path.name}: expected columns {expected_fields}, "
                f"got {reader.fieldnames}"
            )
        rows = []
        for row in reader:
            for column in expected_fields:
                if row[column] is None:
                    raise DataFormatError(
                        f"{path.name}: line {reader.line_num}: missing {column!r} cell"
                    )
            rows.append((reader.line_num, row))
        return rows


def _number(path: Path, line: int, row: dict[str, str], column: str) -> float:
    """One numeric cell, or a :class:`DataFormatError` naming where it is."""
    try:
        return float(row[column])
    except ValueError:
        raise DataFormatError(
            f"{path.name}: line {line}: {column!r} cell {row[column]!r} is not a number"
        ) from None


def load_dataset(directory: str | Path) -> Dataset:
    """Load a dataset previously written by :func:`save_dataset`.

    A missing file, unexpected columns, a short row, a non-numeric
    number cell or a repeated claim raise
    :class:`~repro.errors.DataFormatError`.
    """
    directory = Path(directory)
    path = directory / "tasks.csv"
    tasks = []
    for line, row in _read_rows(path, _TASK_FIELDS):
        domain = tuple(row["domain"].split(_DOMAIN_SEP)) if row["domain"] else ()
        tasks.append(
            Task(
                task_id=row["task_id"],
                domain=domain,
                requirement=_number(path, line, row, "requirement"),
                value=_number(path, line, row, "value"),
                truth=row["truth"] or None,
            )
        )
    path = directory / "workers.csv"
    workers = []
    for line, row in _read_rows(path, _WORKER_FIELDS):
        sources = tuple(row["sources"].split(_DOMAIN_SEP)) if row["sources"] else ()
        workers.append(
            WorkerProfile(
                worker_id=row["worker_id"],
                cost=_number(path, line, row, "cost"),
                reliability=_number(path, line, row, "reliability"),
                is_copier=row["is_copier"] == "1",
                sources=sources,
                copy_prob=_number(path, line, row, "copy_prob"),
            )
        )
    claims: dict[tuple[str, str], str] = {}
    for _, row in _read_rows(directory / "claims.csv", _CLAIM_FIELDS):
        key = (row["worker_id"], row["task_id"])
        if key in claims:
            # A worker submits at most one value per task; silently
            # keeping the last row would make streaming replay
            # (repro.streaming) non-deterministic on corrupt archives.
            raise DataFormatError(
                f"claims.csv: duplicate claim for worker {key[0]!r} "
                f"on task {key[1]!r}"
            )
        claims[key] = row["value"]
    return Dataset(tasks=tuple(tasks), workers=tuple(workers), claims=claims)
