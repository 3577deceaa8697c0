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

Writes compute, journal, then publish one :class:`OnlineState`; reads
take the published one and need no lock.  See DESIGN.md §8.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ..core.accuracy import claim_mean_by_worker
from ..core.config import DateConfig
from ..core.date import TruthDiscoveryResult
from ..core.engine import dense_accuracy
from ..core.indexing import DatasetIndex, _concat_ranges
from ..discovery import canonical_algorithm, make_discoverer
from ..errors import ConfigurationError
from ..types import Dataset
from .ingest import ClaimBatch, is_integer

__all__ = ["OnlineDATE", "OnlineState", "OnlineUpdate"]


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
    new_tasks: int = 0
    new_workers: int = 0
    new_claims: int = 0
    dirty_tasks: int = 0
    iterations: int = 0
    refreshed: bool = False


@dataclass(frozen=True, eq=False)
class OnlineState:
    """One published estimate, never mutated: writers build a new one.

    ``claim_acc`` holds each claim's accuracy in the index's claim
    order; ``batches`` counts the non-empty batches applied.
    """

    index: DatasetIndex
    claim_acc: np.ndarray
    truths: dict[str, str]
    confidence: dict[str, float]
    batches: int

    @cached_property
    def truths_body(self) -> bytes:
        """The ``GET /campaigns/<id>/truths`` body, encoded on first
        read: a publish builds a new state, so each is encoded at most
        once (two first reads at once may both encode the same bytes)."""
        return json.dumps({"truths": self.truths, "confidence": self.confidence}).encode()

    def worker_accuracy(self) -> dict[str, float]:
        """``worker_id -> mean accuracy`` (reputation)."""
        means = claim_mean_by_worker(self.index.arrays, self.claim_acc)
        return {
            worker_id: float(means[i])
            for i, worker_id in enumerate(self.index.worker_ids)
        }


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
        if not is_integer(refresh_every) or refresh_every < 0:
            raise ConfigurationError(
                f"refresh_every must be an int >= 0, got {refresh_every!r}"
            )
        self._config = config or DateConfig()
        self._algorithm = canonical_algorithm(algorithm)
        self._discoverer = make_discoverer(
            self._algorithm, date_config=self._config
        )
        self.refresh_every = int(refresh_every)
        empty = DatasetIndex(Dataset(tasks=(), workers=(), claims={}))
        self._state = OnlineState(empty, np.empty(0, dtype=np.float64), {}, {}, 0)

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
    def state(self) -> OnlineState:
        """The published estimate; read it once per answer."""
        return self._state

    @property
    def dataset(self) -> Dataset:
        """The full campaign accumulated so far, claims in arrival order.

        Assembled from the index on first read after each ingest.
        """
        return self._state.index.dataset

    @property
    def index(self) -> DatasetIndex:
        """The incrementally maintained index over :attr:`dataset`."""
        return self._state.index

    @property
    def n_batches(self) -> int:
        return self._state.batches

    @property
    def truths(self) -> dict[str, str]:
        """Current ``task_id -> estimated truth``."""
        return dict(self._state.truths)

    @property
    def confidence(self) -> dict[str, float]:
        """Current ``task_id -> posterior of the selected truth``."""
        return dict(self._state.confidence)

    @property
    def worker_accuracy(self) -> dict[str, float]:
        """Current ``worker_id -> mean accuracy`` (reputation)."""
        return self._state.worker_accuracy()

    def snapshot(self) -> TruthDiscoveryResult:
        """The current estimate as a standard result bundle.

        Support and dependence tables are campaign-global structures the
        online path does not maintain between refreshes; they are empty
        here and populated on the result returned by :meth:`refresh`.
        """
        state = self._state
        index = state.index
        return TruthDiscoveryResult(
            truths=dict(state.truths),
            accuracy_matrix=dense_accuracy(index.arrays, state.claim_acc),
            worker_accuracy=state.worker_accuracy(),
            confidence=dict(state.confidence),
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
    # Writers are serialized by the caller.  Each computes its next
    # state, calls ``journal`` (the store's write-ahead append), then
    # publishes it with one assignment; one that raises publishes none.

    def ingest(
        self, batch: ClaimBatch, journal: Callable[[], None] | None = None
    ) -> OnlineUpdate:
        """Apply one claim batch and re-estimate the affected tasks.

        Extending the index validates the batch: a refused one raises
        :class:`~repro.errors.DataFormatError` before ``journal`` runs.
        """
        state = self._state
        if batch.is_empty:
            if journal is not None:
                journal()
            return OnlineUpdate(batch=state.batches)
        ext = state.index.extended(
            tasks=batch.tasks, workers=batch.workers, claims=batch.claims
        )
        claim_acc = ext.carried(state.claim_acc, self._config.initial_accuracy)
        state = replace(
            state, index=ext.index, claim_acc=claim_acc, batches=state.batches + 1
        )

        iterations = 0
        refreshed = self.refresh_every > 0 and state.batches % self.refresh_every == 0
        if refreshed:
            # The full refresh subsumes the dirty-scope pass — running
            # both would just throw the sub-run's result away.
            state, result = self._refreshed(state)
            iterations = result.iterations
        else:
            task_ptr = ext.index.arrays.task_ptr
            claimed = task_ptr[ext.dirty_tasks + 1] > task_ptr[ext.dirty_tasks]
            dirty = ext.dirty_tasks[claimed]
            if len(dirty):
                state, iterations = self._rerun(state, dirty)
        if journal is not None:
            journal()
        self._state = state
        return OnlineUpdate(
            batch=state.batches,
            new_tasks=len(batch.tasks),
            new_workers=len(batch.workers),
            new_claims=batch.n_claims,
            dirty_tasks=len(ext.dirty_tasks),
            iterations=iterations,
            refreshed=refreshed,
        )

    def refresh(
        self, journal: Callable[[], None] | None = None
    ) -> TruthDiscoveryResult:
        """Full cold re-estimation over the maintained index.

        Restores exactness: the returned result is identical to
        ``DATE(config).run(dataset)`` on the campaign accumulated so
        far (the incremental index is pinned equivalent to a cold
        rebuild), and is published wholesale once ``journal`` returns.
        """
        state, result = self._refreshed(self._state)
        if journal is not None:
            journal()
        self._state = state
        return result

    # -- internals -------------------------------------------------------

    def _refreshed(
        self, state: OnlineState
    ) -> tuple[OnlineState, TruthDiscoveryResult]:
        """``state`` re-estimated cold, and the run's result.

        The run works on a private copy of the index (an empty
        extension), so the pair tables and slot map it builds die with
        it.
        """
        index = state.index.extended().index
        result = self._discoverer.run(None, index=index)
        arrays = index.arrays
        return replace(
            state,
            claim_acc=result.accuracy_matrix[arrays.claim_worker, arrays.claim_task],
            truths=dict(result.truths),
            confidence=dict(result.confidence),
        ), result

    def _rerun(
        self, state: OnlineState, dirty: np.ndarray
    ) -> tuple[OnlineState, int]:
        """Re-estimate the claimed dirty tasks on a restricted view.

        The sub-run is warm-started from the current truths of its tasks
        and the campaign-wide reputations of its workers, computed for
        those workers only; its per-claim accuracies scatter back into
        the unpublished ``state.claim_acc`` through the view's claim
        positions, and its truths and confidences replace those of its
        tasks in new dicts.  Returns the new state and the sub-run's
        iteration count.
        """
        index, claim_acc = state.index, state.claim_acc
        sub, positions = index.restricted(dirty)
        workers = np.fromiter(map(index.worker_pos.__getitem__, sub.worker_ids), np.int64)
        means = _worker_means(index.arrays, claim_acc, workers)
        warm = TruthDiscoveryResult(
            truths={t: state.truths[t] for t in sub.task_ids if t in state.truths},
            accuracy_matrix=np.zeros((0, 0)),
            worker_accuracy=dict(zip(sub.worker_ids, means.tolist())),
            confidence={},
            support={},
            dependence={},
            iterations=0,
            converged=True,
            method="snapshot",
        )
        result = self._discoverer.run(None, index=sub, warm_start=warm, lean=True)
        arrays = sub.arrays
        claim_acc[positions] = result.accuracy_matrix[
            arrays.claim_worker, arrays.claim_task
        ]
        truths, confidence = dict(state.truths), dict(state.confidence)
        for task_id in sub.task_ids:
            value = result.truths.get(task_id)
            task_confidence = result.confidence.get(task_id)
            if value is None:
                truths.pop(task_id, None)
            else:
                truths[task_id] = value
            if value is None or task_confidence is None:
                confidence.pop(task_id, None)
            else:
                confidence[task_id] = task_confidence
        return replace(state, truths=truths, confidence=confidence), result.iterations


def _worker_means(arrays, claim_values: np.ndarray, workers: np.ndarray) -> np.ndarray:
    """What :func:`claim_mean_by_worker` gives ``workers`` (ascending
    positions, each with a claim), reading only their claims.

    A worker's segment of the worker CSR lists its claims in claim
    order, and ``bincount`` adds each bin's weights in array order from
    +0.0, so every sum adds the same values in the same order as the
    campaign-wide ``bincount``: the bits match.
    """
    ptr = arrays.worker_ptr
    counts = ptr[workers + 1] - ptr[workers]
    claims = arrays.worker_claims[_concat_ranges(ptr[workers], counts)]
    owner = np.repeat(np.arange(len(workers)), counts)
    sums = np.bincount(owner, weights=claim_values[claims], minlength=len(workers))
    return sums / counts
