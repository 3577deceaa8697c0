"""Online truth discovery: DATE over a stream of claim batches.

:class:`OnlineDATE` keeps one long-lived campaign estimate current as
claims arrive, without paying a cold re-encode + full re-run per batch:

1. **Incremental ingestion** — each batch extends the campaign's
   :class:`~repro.core.indexing.DatasetIndex` through its append path,
   which re-encodes only the *dirty* tasks (tasks receiving claims,
   plus appended tasks) and splices every clean CSR segment across.
   Per-claim accuracy state is carried over via the extension's claim
   position map; the batch's claims start at ε (``initial_accuracy``).
2. **Scoring by the last refresh's model** — the claimed dirty tasks
   are re-scored in one weighted vote over their CSR segments, Alg. 1's
   line 28 with the fitted model held fixed: claimant ``i`` weighs
   ``w_i = A_i · (1 − max_i' P(i → i'))``, its accuracy at the last
   refresh discounted by its likeliest copy edge (Eq. 16's discount).
   A worker the last refresh did not see weighs ε, and before the
   first refresh every worker does, so a campaign that never refreshes
   serves majority vote.  The per-batch cost is O(claims of the dirty
   tasks); no estimator runs.
3. **Periodic full refresh** — the vote is a local approximation: new
   evidence on one task can, through worker reputations and copier
   posteriors, shift estimates elsewhere, and it does not refit the
   model.  :meth:`OnlineDATE.refresh` (run automatically every
   ``refresh_every`` batches, and at the end of a replay) re-runs DATE
   cold over the whole maintained index, restoring *exactly* the
   batch-mode answer: after a refresh the estimate equals
   ``DATE(config).run(full_dataset)`` bit for bit, because it is the
   same computation over an index pinned equivalent to a cold rebuild.
   The refresh also fits the vote's weights.

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
from ..core.indexing import (
    DatasetIndex,
    _concat_ranges,
    _offsets,
    segment_first_argmax_code,
)
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
        Number of task segments re-encoded (the claimed ones are
        re-scored).
    iterations:
        Iterations of the full refresh this ingest ran; 0 when it ran
        none (the vote iterates nothing).
    refreshed:
        Whether this ingest triggered a periodic full refresh (which
        then replaces the vote entirely).
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
    ``weights`` holds the vote weight of each worker the last refresh
    indexed, by worker position (empty before the first refresh).
    """

    index: DatasetIndex
    claim_acc: np.ndarray
    truths: dict[str, str]
    confidence: dict[str, float]
    batches: int
    weights: np.ndarray

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
        DATE hyperparameters of the full refreshes; its
        ``initial_accuracy`` ε is also the vote weight of a worker the
        last refresh did not see.
    refresh_every:
        Run a full refresh automatically after every N ingested
        batches; 0 (default) refreshes only on explicit
        :meth:`refresh` calls.
    algorithm:
        Name of the truth-discovery zoo member driving the full
        refreshes (default ``DATE``; see
        :func:`repro.discovery.list_algorithms`).  Between refreshes
        its worker accuracies weigh the vote, discounted by its pair
        posteriors when it has them (DATE and ED).
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
        none = np.empty(0, dtype=np.float64)
        self._state = OnlineState(empty, none, {}, {}, 0, none)

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
        """Apply one claim batch and re-score the tasks it claims.

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
            # The full refresh re-scores every task, the vote's included.
            state, result = self._refreshed(state)
            iterations = result.iterations
        else:
            task_ptr = ext.index.arrays.task_ptr
            claimed = task_ptr[ext.dirty_tasks + 1] > task_ptr[ext.dirty_tasks]
            dirty = ext.dirty_tasks[claimed]
            if len(dirty):
                state = self._voted(state, dirty)
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
        rebuild), and is published wholesale once ``journal`` returns,
        with the vote weights it implies.
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
            weights=self._vote_weights(arrays, result),
        ), result

    def _vote_weights(self, arrays, result: TruthDiscoveryResult) -> np.ndarray:
        """Each worker's vote weight under a refresh's ``result``.

        ``A_i · (1 − max_i' P(i → i'))``: the worker's accuracy,
        discounted by its largest posterior of copying a partner.  An
        empty ``dependence`` (a member without pair posteriors)
        discounts nothing, and a worker without claims weighs ε.
        """
        n_workers = arrays.index.n_workers
        accuracy = np.fromiter(result.worker_accuracy.values(), np.float64, n_workers)
        copies = np.zeros(n_workers)
        dependence = result.dependence
        if len(dependence):
            np.maximum.at(copies, dependence.pair_a, dependence.p_ab)
            np.maximum.at(copies, dependence.pair_b, dependence.p_ba)
        answered = arrays.worker_ptr[1:] > arrays.worker_ptr[:-1]
        return np.where(answered, accuracy * (1.0 - copies), self._config.initial_accuracy)

    def _voted(self, state: OnlineState, dirty: np.ndarray) -> OnlineState:
        """``state`` with the claimed ``dirty`` tasks re-scored by the
        last refresh's model.

        One pass over those tasks' CSR segments: each claim weighs its
        worker's ``state.weights`` entry (ε for a worker added since),
        each value group sums its claims' weights in claim order, the
        truth is line 28's first argmax over a task's group sums (ties
        to the smallest code) and its confidence the truth's share of
        the task's total weight.  With equal weights that is majority
        vote's winner and vote share.
        """
        arrays = state.index.arrays
        task_ptr, group_ptr = arrays.task_ptr, arrays.task_group_ptr
        n_claims = task_ptr[dirty + 1] - task_ptr[dirty]
        n_groups = group_ptr[dirty + 1] - group_ptr[dirty]
        groups = _concat_ranges(group_ptr[dirty], n_groups)
        workers = arrays.claim_worker[_concat_ranges(task_ptr[dirty], n_claims)]
        weights = state.weights
        seen = workers < len(weights)
        claim_weight = np.full(len(workers), self._config.initial_accuracy)
        claim_weight[seen] = weights[workers[seen]]
        # Claims sorted by (task, code, worker) walk the dirty tasks and
        # their groups in order, so group k owns the next group_size[k]
        # claims; both sums add in that order.
        group_of = np.repeat(np.arange(len(groups)), arrays.group_size[groups])
        group_weight = np.bincount(group_of, weights=claim_weight, minlength=len(groups))
        task_of = np.repeat(np.arange(len(dirty)), n_claims)
        totals = np.bincount(task_of, weights=claim_weight, minlength=len(dirty))
        ptr = _offsets(n_groups)
        winners = ptr[:-1] + segment_first_argmax_code(group_weight, ptr)
        shares = np.divide(
            group_weight[winners], totals, out=np.zeros(len(dirty)), where=totals > 0
        )
        task_ids = [state.index.task_ids[j] for j in dirty.tolist()]
        truths, confidence = dict(state.truths), dict(state.confidence)
        truths.update(zip(task_ids, arrays.group_values[groups[winners]].tolist()))
        confidence.update(zip(task_ids, shares.tolist()))
        return replace(state, truths=truths, confidence=confidence)
