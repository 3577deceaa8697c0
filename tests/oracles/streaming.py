"""The sub-dataset rebuild the streaming dirty-scope pass replaced.

:meth:`repro.core.indexing.DatasetIndex.restricted` gathers the dirty
tasks' CSR segments straight from the campaign index.  Before it, each
ingest rebuilt those tasks as a fresh :class:`~repro.types.Dataset` and
indexed it cold; :func:`_subcampaign` is that rebuild, kept so
the property suite can pin ``DatasetIndex(_subcampaign(index, dirty))``
and ``index.restricted(dirty)`` together field by field.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from repro.core.indexing import DatasetIndex
from repro.types import Dataset

from .indexing import claims_by_task

__all__ = ["_subcampaign"]


def _subcampaign(index: DatasetIndex, dirty: list[int]) -> Dataset:
    """The sub-dataset induced by the dirty tasks, built in O(affected).

    Mirrors :meth:`Dataset.subset` semantics (copy sources outside the
    kept worker set are dropped) without its full-campaign scan.
    """
    dataset = index.dataset
    by_task = claims_by_task(index)
    tasks = tuple(dataset.tasks[j] for j in dirty)
    worker_positions = sorted({i for j in dirty for i in by_task[j]})
    keep_ids = {index.worker_ids[i] for i in worker_positions}
    workers = []
    for i in worker_positions:
        worker = dataset.worker_by_id[index.worker_ids[i]]
        sources = tuple(s for s in worker.sources if s in keep_ids)
        if worker.is_copier and not sources:
            worker = dc_replace(
                worker, is_copier=False, sources=(), copy_prob=0.0
            )
        elif sources != worker.sources:
            worker = dc_replace(worker, sources=sources)
        workers.append(worker)
    claims = {
        (index.worker_ids[i], index.task_ids[j]): value
        for j in dirty
        for i, value in by_task[j].items()
    }
    return Dataset(tasks=tasks, workers=tuple(workers), claims=claims)
