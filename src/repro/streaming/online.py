"""Online truth discovery: DATE over a stream of claim batches.

:class:`OnlineDATE` keeps one long-lived campaign estimate current as
claims arrive, without paying a cold re-encode + full re-run per batch:

1. **Incremental ingestion** — each batch extends the campaign's
   :class:`~repro.core.indexing.DatasetIndex` through its append path,
   which re-encodes only the *dirty* tasks (tasks receiving claims,
   plus appended tasks) and splices every clean CSR segment across.
   Per-claim accuracy state is carried over via the extension's claim
   position map.
2. **Dirty-scope re-estimation** — DATE runs on a restricted view of
   the campaign index over the batch's dirty tasks only (all claims on
   those tasks, the workers providing them; see
   :meth:`~repro.core.indexing.DatasetIndex.restricted`), warm-started
   from the current truths and worker reputations, so the per-batch
   cost is O(affected segments) instead of O(campaign).
3. **Periodic full refresh** — the dirty-scope pass is a local
   approximation: new evidence on one task can, through worker
   reputations and copier posteriors, shift estimates elsewhere.
   :meth:`OnlineDATE.refresh` (run automatically every
   ``refresh_every`` batches, and at the end of a replay) re-runs DATE
   cold over the whole maintained index, restoring *exactly* the
   batch-mode answer: after a refresh the estimate equals
   ``DATE(config).run(full_dataset)`` bit for bit, because it is the
   same computation over an index pinned equivalent to a cold rebuild.

See DESIGN.md §8 for the invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.accuracy import claim_mean_by_worker
from ..core.config import DateConfig
from ..core.date import TruthDiscoveryResult
from ..core.engine import dense_accuracy
from ..core.indexing import DatasetIndex
from ..discovery import canonical_algorithm, make_discoverer
from ..errors import ConfigurationError
from ..types import Dataset
from .ingest import ClaimBatch

__all__ = ["OnlineDATE", "OnlineUpdate"]


@dataclass(frozen=True)
class OnlineUpdate:
    """What one :meth:`OnlineDATE.ingest` call did.

    Attributes
    ----------
    batch:
        1-based index of the ingested batch.
    new_tasks / new_workers / new_claims:
        Sizes of the batch delta.
    dirty_tasks:
        Number of task segments re-encoded and re-estimated.
    iterations:
        DATE iterations spent on this batch — the dirty-scope
        re-estimation, or the full refresh when one fired (0 when the
        batch carried no claims).
    refreshed:
        Whether this ingest triggered a periodic full refresh (which
        then replaces the dirty-scope pass entirely).
    """

    batch: int
    new_tasks: int
    new_workers: int
    new_claims: int
    dirty_tasks: int
    iterations: int
    refreshed: bool


class OnlineDATE:
    """A long-lived, incrementally updated DATE estimator.

    >>> from repro.datasets import generate_qatar_living_like
    >>> from repro.streaming import replay_batches
    >>> dataset = generate_qatar_living_like(seed=3, n_tasks=40,
    ...     n_workers=20, n_copiers=5, target_claims=600)
    >>> online = OnlineDATE()
    >>> for batch in replay_batches(dataset, 4):
    ...     _ = online.ingest(batch)
    >>> final = online.refresh()
    >>> final.truths == DATE().run(dataset).truths
    True

    Parameters
    ----------
    config:
        DATE hyperparameters, shared by the dirty-scope passes and the
        full refreshes.
    refresh_every:
        Run a full refresh automatically after every N ingested
        batches; 0 (default) refreshes only on explicit
        :meth:`refresh` calls.
    algorithm:
        Name of the truth-discovery zoo member driving both the
        dirty-scope passes and the full refreshes (default ``DATE``;
        see :func:`repro.discovery.list_algorithms`).  Algorithms
        without a warm-start path simply re-estimate the dirty scope
        cold — the refresh exactness guarantee is unchanged.
    """

    def __init__(
        self,
        config: DateConfig | None = None,
        *,
        refresh_every: int = 0,
        algorithm: str = "DATE",
    ):
        if refresh_every < 0:
            raise ConfigurationError(
                f"refresh_every must be >= 0, got {refresh_every}"
            )
        self._config = config or DateConfig()
        self._algorithm = canonical_algorithm(algorithm)
        self._discoverer = make_discoverer(
            self._algorithm, date_config=self._config
        )
        self.refresh_every = refresh_every
        self._index = DatasetIndex(Dataset(tasks=(), workers=(), claims={}))
        self._claim_acc = np.empty(0, dtype=np.float64)
        self._truths: dict[str, str] = {}
        self._confidence: dict[str, float] = {}
        self._batches = 0

    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        config: DateConfig | None = None,
        **kwargs,
    ) -> "OnlineDATE":
        """Seed an online estimator with an existing campaign snapshot."""
        online = cls(config, **kwargs)
        online.ingest(
            ClaimBatch(
                claims=dataset.claims, tasks=dataset.tasks, workers=dataset.workers
            )
        )
        return online

    # -- read side -------------------------------------------------------

    @property
    def config(self) -> DateConfig:
        return self._config

    @property
    def algorithm(self) -> str:
        """Canonical name of the zoo member driving this estimator."""
        return self._algorithm

    @property
    def dataset(self) -> Dataset:
        """The full campaign accumulated so far, claims in arrival order.

        Assembled from the index on first read after each ingest.
        """
        return self._index.dataset

    @property
    def index(self) -> DatasetIndex:
        """The incrementally maintained index over :attr:`dataset`."""
        return self._index

    @property
    def n_batches(self) -> int:
        return self._batches

    @property
    def truths(self) -> dict[str, str]:
        """Current ``task_id -> estimated truth``."""
        return dict(self._truths)

    @property
    def confidence(self) -> dict[str, float]:
        """Current ``task_id -> posterior of the selected truth``."""
        return dict(self._confidence)

    @property
    def worker_accuracy(self) -> dict[str, float]:
        """Current ``worker_id -> mean accuracy`` (reputation)."""
        means = claim_mean_by_worker(self._index.arrays, self._claim_acc)
        return {
            worker_id: float(means[i])
            for i, worker_id in enumerate(self._index.worker_ids)
        }

    def snapshot(self) -> TruthDiscoveryResult:
        """The current estimate as a standard result bundle.

        Support and dependence tables are campaign-global structures the
        online path does not maintain between refreshes; they are empty
        here and populated on the result returned by :meth:`refresh`.
        """
        index = self._index
        return TruthDiscoveryResult(
            truths=dict(self._truths),
            accuracy_matrix=dense_accuracy(index.arrays, self._claim_acc),
            worker_accuracy=self.worker_accuracy,
            confidence=dict(self._confidence),
            support={},
            dependence={},
            iterations=0,
            converged=True,
            method="OnlineDATE",
            worker_ids=tuple(index.worker_ids),
            task_ids=tuple(index.task_ids),
            _ground_truths={
                task.task_id: task.truth for task in index.tasks if task.truth is not None
            },
        )

    # -- write side ------------------------------------------------------

    def validate(self, batch: ClaimBatch) -> None:
        """Check ``batch`` against the campaign without applying it.

        Raises :class:`~repro.errors.DataFormatError` for exactly the
        violations :meth:`ingest` would reject — unknown task/worker
        references, duplicate claims, out-of-domain values — and
        touches no state.  The durable store runs this before the
        write-ahead journal append, so a batch destined for a 400 never
        becomes a journal record that would poison every later replay.
        """
        if batch.is_empty:
            return
        self._index.validate_extension(
            tasks=batch.tasks, workers=batch.workers, claims=batch.claims
        )

    def ingest(self, batch: ClaimBatch) -> OnlineUpdate:
        """Apply one claim batch and re-estimate the affected tasks."""
        if batch.is_empty:
            return OnlineUpdate(
                batch=self._batches,
                new_tasks=0,
                new_workers=0,
                new_claims=0,
                dirty_tasks=0,
                iterations=0,
                refreshed=False,
            )
        ext = self._index.extended(
            tasks=batch.tasks, workers=batch.workers, claims=batch.claims
        )
        claim_acc = np.full(
            ext.index.arrays.n_claims,
            self._config.initial_accuracy,
            dtype=np.float64,
        )
        claim_acc[ext.claim_map] = self._claim_acc
        self._index = ext.index
        self._claim_acc = claim_acc
        self._batches += 1

        iterations = 0
        refreshed = (
            self.refresh_every > 0 and self._batches % self.refresh_every == 0
        )
        if refreshed:
            # The full refresh subsumes the dirty-scope pass — running
            # both would just throw the sub-run's result away.
            iterations = self.refresh().iterations
        else:
            task_ptr = self._index.arrays.task_ptr
            claimed = task_ptr[ext.dirty_tasks + 1] > task_ptr[ext.dirty_tasks]
            dirty = ext.dirty_tasks[claimed]
            if len(dirty):
                iterations = self._rerun(dirty)
        return OnlineUpdate(
            batch=self._batches,
            new_tasks=len(batch.tasks),
            new_workers=len(batch.workers),
            new_claims=batch.n_claims,
            dirty_tasks=len(ext.dirty_tasks),
            iterations=iterations,
            refreshed=refreshed,
        )

    def refresh(self) -> TruthDiscoveryResult:
        """Full cold re-estimation over the maintained index.

        Restores exactness: the returned result is identical to
        ``DATE(config).run(dataset)`` on the campaign accumulated so
        far (the incremental index is pinned equivalent to a cold
        rebuild), and the online state adopts it wholesale.

        It runs on a private copy of the index (an empty extension), so
        the pair tables and slot map it builds die with the run.
        """
        index = self._index.extended().index
        result = self._discoverer.run(None, index=index)
        arrays = index.arrays
        self._claim_acc = result.accuracy_matrix[
            arrays.claim_worker, arrays.claim_task
        ]
        self._truths = dict(result.truths)
        self._confidence = dict(result.confidence)
        return result

    # -- internals -------------------------------------------------------

    def _rerun(self, dirty: np.ndarray) -> int:
        """Re-estimate the claimed dirty tasks on a restricted view.

        The sub-run is warm-started from the current truths of its tasks
        and the campaign-wide reputations of its workers; its per-claim
        accuracies scatter back through the view's claim positions, and
        its truths and confidences replace those of its tasks.  Returns
        the sub-run's iteration count.
        """
        sub, positions = self._index.restricted(dirty)
        means = claim_mean_by_worker(self._index.arrays, self._claim_acc)
        worker_pos = self._index.worker_pos
        warm = TruthDiscoveryResult(
            truths={t: self._truths[t] for t in sub.task_ids if t in self._truths},
            accuracy_matrix=np.zeros((0, 0)),
            worker_accuracy={w: float(means[worker_pos[w]]) for w in sub.worker_ids},
            confidence={},
            support={},
            dependence={},
            iterations=0,
            converged=True,
            method="snapshot",
        )
        result = self._discoverer.run(None, index=sub, warm_start=warm, lean=True)
        arrays = sub.arrays
        self._claim_acc[positions] = result.accuracy_matrix[
            arrays.claim_worker, arrays.claim_task
        ]
        for task_id in sub.task_ids:
            value = result.truths.get(task_id)
            confidence = result.confidence.get(task_id)
            if value is None:
                self._truths.pop(task_id, None)
            else:
                self._truths[task_id] = value
            if value is None or confidence is None:
                self._confidence.pop(task_id, None)
            else:
                self._confidence[task_id] = confidence
        return result.iterations
