"""Integer-indexed views of a :class:`~repro.types.Dataset`.

DATE's inner loops touch the same derived structures every iteration:
claims by task, value groups ``W_v^j``, the co-answering worker pairs,
and each pair's shared tasks.  :class:`DatasetIndex` computes them once,
mapping string ids to dense integer indexes so the hot paths work on
ints and numpy arrays.

Its claims live in one form, :class:`ClaimArrays` (reachable as
:attr:`DatasetIndex.arrays`, built with the index): every claim value is
replaced by a small per-task integer code and all per-claim,
per-value-group and per-worker-pair structures are flattened into
contiguous numpy arrays (CSR style).  The DATE kernels
(:mod:`repro.core.engine`) run entirely on these arrays; see DESIGN.md
§7 for the encoding.

Streaming campaigns (:mod:`repro.streaming`) grow an existing index one
claim batch at a time through :meth:`DatasetIndex.extended`: only the
*dirty* tasks — those receiving new claims, plus appended tasks — are
re-encoded, every clean CSR segment is spliced across with bulk numpy
copies, and the old index stays valid (shared sub-structures are never
mutated).  DESIGN.md §8 documents the dirty-task invariants.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import DataFormatError
from ..types import Dataset, Task, WorkerProfile

__all__ = ["ClaimArrays", "DatasetIndex", "IndexExtension"]


class DatasetIndex:
    """Precomputed integer-indexed structures for one dataset.

    The index is read-only; all algorithms in :mod:`repro.core` and
    :mod:`repro.baselines` accept either a dataset (and build an index
    internally) or a prebuilt index (to share the cost across
    algorithms, as the benchmark harness does).
    """

    def __init__(self, dataset: Dataset):
        self.__dict__["dataset"] = dataset
        self._set_members(dataset.tasks, dataset.workers)
        #: The integer-coded, flattened claim arrays.
        self.arrays = ClaimArrays(self)

    def _set_members(
        self, tasks: tuple[Task, ...], workers: tuple[WorkerProfile, ...]
    ) -> None:
        #: Task records in index order (closed domains, ground truths).
        self.tasks = tasks
        #: Worker profiles in index order.
        self.workers = workers
        #: Task ids in dataset order; positions are the task indexes used below.
        self.task_ids: list[str] = [t.task_id for t in tasks]
        #: Worker ids in dataset order; positions are the worker indexes.
        self.worker_ids: list[str] = [w.worker_id for w in workers]
        self.task_pos: dict[str, int] = {t: j for j, t in enumerate(self.task_ids)}
        self.worker_pos: dict[str, int] = {w: i for i, w in enumerate(self.worker_ids)}

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def n_workers(self) -> int:
        return len(self.worker_ids)

    @cached_property
    def num_false(self) -> np.ndarray:
        """Effective ``num_j`` (count of false values) per task.

        The declared closed-domain size minus one, or the observed
        number of distinct values minus one for open domains; at least
        1 so the false-value probability ``(1 - A)/num`` stays finite.
        """
        observed = np.diff(self.arrays.task_group_ptr).tolist()
        return np.array(
            [max(t.num_false if t.domain else k - 1, 1) for t, k in zip(self.tasks, observed)],
            dtype=np.int64,
        )

    @cached_property
    def dataset(self) -> Dataset:
        """The encoded campaign, its claims in arrival order.

        A cold index returns the dataset it was built from; an extended
        index or a :meth:`restricted` view assembles one from
        :attr:`tasks`, :attr:`workers` and the claims in
        ``arrays.claim_seq`` order on first read.
        """
        arrays = self.arrays
        order = np.argsort(arrays.claim_seq)
        rows = zip(
            arrays.claim_worker[order].tolist(),
            arrays.claim_task[order].tolist(),
            arrays.claim_group[order].tolist(),
        )
        claims = {
            (self.worker_ids[i], self.task_ids[j]): arrays.group_values[g] for i, j, g in rows
        }
        return Dataset(tasks=self.tasks, workers=self.workers, claims=claims)

    # ------------------------------------------------------------------
    # Incremental extension (streaming append path)
    # ------------------------------------------------------------------

    def extended(
        self,
        *,
        tasks: Iterable[Task] = (),
        workers: Iterable[WorkerProfile] = (),
        claims: Mapping[tuple[str, str], str] | None = None,
    ) -> "IndexExtension":
        """Return a new index with ``tasks``/``workers``/``claims`` appended.

        Only the *delta* is validated and re-encoded: tasks receiving
        new claims (plus appended tasks) are marked dirty and rebuilt;
        every clean CSR segment of :attr:`arrays` is bulk-copied from
        this index, so the cost is O(affected segments + memcpy), not a
        full re-encode.  ``self`` is left untouched and remains valid.

        Only the claim and group encodings are carried.  What the
        arrays derive lazily — the pair tables and everything built on
        them, such as the Eq. 16 slot map — starts unmaterialized on
        the extension even when ``self`` has built it, and is rebuilt
        from the extension's own CSR on first use: an ingest never pays
        O(pair rows), and the rebuild is byte-identical to a cold
        index's (row keys are unique, so the row order is determined).

        Raises :class:`~repro.errors.DataFormatError` for ids that
        collide with existing ones, claims referencing unknown tasks or
        workers, out-of-domain values, and duplicate ``(worker, task)``
        claims — the invariants streaming replay depends on.
        """
        tasks = tuple(tasks)
        workers = tuple(workers)
        claims = dict(claims or {})
        self._validate_extension(tasks, workers, claims)

        new = object.__new__(DatasetIndex)
        new._set_members(self.tasks + tasks, self.workers + workers)
        batch_task = np.array([new.task_pos[t] for _, t in claims], dtype=np.int64)
        batch_worker = np.array([new.worker_pos[w] for w, _ in claims], dtype=np.int64)
        dirty = np.union1d(batch_task, np.arange(self.n_tasks, new.n_tasks, dtype=np.int64))
        new.arrays, claim_map = _extend_claim_arrays(
            self.arrays, new, dirty, batch_task, batch_worker, list(claims.values())
        )
        return IndexExtension(index=new, dirty_tasks=dirty, claim_map=claim_map)

    def restricted(self, tasks: np.ndarray) -> tuple["DatasetIndex", np.ndarray]:
        """A read-only view over ``tasks`` and the workers answering them.

        Streaming runs its dirty-scope re-estimation on this view.
        ``tasks`` are ascending task positions; tasks and workers keep
        this index's order, workers compressed to the claimants (copy
        sources outside them dropped, as :meth:`Dataset.subset` does),
        and the view's claims arrive task by task, each task's in this
        index's arrival order.  The CSR segments of :attr:`arrays` are
        gathered from this index's arrays rather than re-encoded; pair
        tables and the slot map stay lazy over the view's own CSR.
        Field by field the view equals a cold index of the induced
        sub-campaign.

        Returns the view and, for each claim of its arrays, that claim's
        position in this index's arrays.
        """
        tasks = np.asarray(tasks, dtype=np.int64)
        parent = self.arrays
        claim_counts = parent.task_ptr[tasks + 1] - parent.task_ptr[tasks]
        group_counts = parent.task_group_ptr[tasks + 1] - parent.task_group_ptr[tasks]
        positions = _concat_ranges(parent.task_ptr[tasks], claim_counts)
        groups = _concat_ranges(parent.task_group_ptr[tasks], group_counts)
        workers, claim_worker = np.unique(
            parent.claim_worker[positions], return_inverse=True
        )
        claim_seq = np.argsort(
            np.lexsort((parent.claim_seq[positions], parent.claim_task[positions]))
        )

        view = object.__new__(DatasetIndex)
        kept = {self.worker_ids[i] for i in workers.tolist()}
        view._set_members(
            tuple(self.tasks[j] for j in tasks.tolist()),
            tuple(self.workers[i].within(kept) for i in workers.tolist()),
        )
        view.arrays = _assemble_claim_arrays(
            object.__new__(ClaimArrays),
            view,
            _offsets(claim_counts),
            _offsets(group_counts),
            claim_worker.astype(np.int64, copy=False),
            parent.claim_code[positions],
            claim_seq,
            parent.group_size[groups],
            tuple(parent.group_values[g] for g in groups.tolist()),
        )
        return view, positions

    def validate_extension(
        self,
        *,
        tasks: Iterable[Task] = (),
        workers: Iterable[WorkerProfile] = (),
        claims: Mapping[tuple[str, str], str] | None = None,
    ) -> None:
        """Validate a delta without building the extension.

        Runs exactly the checks :meth:`extended` performs — colliding
        ids, claims on unknown tasks or workers, duplicate ``(worker,
        task)`` claims, out-of-domain values — and raises
        :class:`~repro.errors.DataFormatError` on the first violation,
        touching nothing.  The durable streaming store calls this
        *before* a batch reaches the write-ahead journal, so a rejected
        batch never persists as an unreplayable record.
        """
        self._validate_extension(tuple(tasks), tuple(workers), dict(claims or {}))

    def _validate_extension(
        self,
        tasks: tuple[Task, ...],
        workers: tuple[WorkerProfile, ...],
        claims: dict[tuple[str, str], str],
    ) -> None:
        """Check the delta against this index (old rows are known-valid)."""
        new_task_by_id: dict[str, Task] = {}
        for task in tasks:
            if task.task_id in self.task_pos or task.task_id in new_task_by_id:
                raise DataFormatError(
                    f"extension re-adds existing task {task.task_id!r}"
                )
            new_task_by_id[task.task_id] = task
        new_worker_ids: set[str] = set()
        for worker in workers:
            if worker.worker_id in self.worker_pos or worker.worker_id in new_worker_ids:
                raise DataFormatError(
                    f"extension re-adds existing worker {worker.worker_id!r}"
                )
            new_worker_ids.add(worker.worker_id)
        for worker in workers:
            for source in worker.sources:
                if source not in self.worker_pos and source not in new_worker_ids:
                    raise DataFormatError(
                        f"worker {worker.worker_id} copies from unknown "
                        f"worker {source!r}"
                    )
        answered = self._answered(claims)
        for (worker_id, task_id), value in claims.items():
            if worker_id not in self.worker_pos and worker_id not in new_worker_ids:
                raise DataFormatError(
                    f"claim references unknown worker {worker_id!r}"
                )
            task = new_task_by_id.get(task_id)
            if task is None:
                j = self.task_pos.get(task_id)
                if j is None:
                    raise DataFormatError(
                        f"claim references unknown task {task_id!r}"
                    )
                task = self.tasks[j]
                if (worker_id, task_id) in answered:
                    raise DataFormatError(
                        f"duplicate claim: worker {worker_id!r} already "
                        f"answered task {task_id!r}"
                    )
            if not isinstance(value, str) or not value:
                raise DataFormatError(
                    f"claim ({worker_id}, {task_id}): value must be a "
                    "non-empty string"
                )
            if task.domain and value not in task.domain:
                raise DataFormatError(
                    f"claim ({worker_id}, {task_id}): value {value!r} "
                    "not in the task's closed domain"
                )

    def _answered(self, claims: dict[tuple[str, str], str]) -> set[tuple[str, str]]:
        """The keys of ``claims`` whose worker already answered the task,
        looked up in the answering workers' segments of the worker CSR."""
        keys = [k for k in claims if k[0] in self.worker_pos and k[1] in self.task_pos]
        arrays = self.arrays
        worker = np.array([self.worker_pos[w] for w, _ in keys], dtype=np.int64)
        task = np.array([self.task_pos[t] for _, t in keys], dtype=np.int64)
        ptr, workers = arrays.worker_ptr, np.unique(worker)
        held = arrays.worker_claims[
            _concat_ranges(ptr[workers], ptr[workers + 1] - ptr[workers])
        ]
        n_tasks = self.n_tasks
        hit = np.isin(
            worker * n_tasks + task,
            arrays.claim_worker[held] * n_tasks + arrays.claim_task[held],
        )
        return {key for key, dup in zip(keys, hit.tolist()) if dup}


@dataclass(frozen=True)
class IndexExtension:
    """Result of :meth:`DatasetIndex.extended`.

    Attributes
    ----------
    index:
        The extended index (the source index is untouched).
    dirty_tasks:
        Sorted task positions (in the *new* index) whose encodings were
        rebuilt: tasks that received new claims plus appended tasks.
        Task positions of pre-existing tasks are stable across
        extensions, so these double as "affected segment" ids.
    claim_map:
        ``old claim position -> new claim position`` into the extended
        :class:`ClaimArrays`, for carrying per-claim state (for example
        accuracies) across the extension.
    """

    index: DatasetIndex
    dirty_tasks: np.ndarray
    claim_map: np.ndarray


@dataclass(frozen=True, eq=False)
class ClaimArrays:
    """Integer-coded, CSR-flattened view of one dataset's claims.

    Values are replaced by per-task integer *codes*: the distinct values
    observed on task ``j`` are sorted lexicographically and numbered
    ``0..K_j-1``, so the lexicographic tie-breaks used throughout the
    scalar code become "smallest code" on the array side.

    Claims are stored once, sorted by ``(task, code, worker)``.  That
    single ordering makes three structures contiguous at the same time:

    - tasks (``task_ptr`` slices claims per task),
    - value groups ``W_v^j`` (``group_ptr`` slices claims per
      (task, value) group; groups of one task are adjacent and ordered
      by code),
    - and, within a group, workers ascending.

    ``claim_seq`` records each claim's arrival position in the campaign,
    the one fact the ``(task, code, worker)`` order drops: the
    undiscounted posterior ranks a task's claims by it, and
    :attr:`DatasetIndex.dataset` lists the claims in its order.

    The co-answering worker pairs are flattened the same way: one row
    per (pair, shared task), grouped by pair via ``pair_ptr``, with
    ``ps_claim_a``/``ps_claim_b`` pointing back into the claim arrays so
    per-claim state (accuracy, codes) is a single gather away.
    """

    index: "DatasetIndex"

    # -- claims, sorted by (task, code, worker) --------------------------
    claim_task: np.ndarray = field(init=False)
    claim_worker: np.ndarray = field(init=False)
    claim_code: np.ndarray = field(init=False)
    claim_group: np.ndarray = field(init=False)
    claim_seq: np.ndarray = field(init=False)
    task_ptr: np.ndarray = field(init=False)

    # -- value groups, in (task, code) order -----------------------------
    group_ptr: np.ndarray = field(init=False)
    group_task: np.ndarray = field(init=False)
    group_code: np.ndarray = field(init=False)
    group_size: np.ndarray = field(init=False)
    group_values: tuple[str, ...] = field(init=False)
    task_group_ptr: np.ndarray = field(init=False)

    # -- worker -> claim CSR ---------------------------------------------
    worker_ptr: np.ndarray = field(init=False)
    worker_claims: np.ndarray = field(init=False)

    # The co-answering pair tables (pair_a, pair_b, pair_ptr, ps_*) are
    # lazy cached properties: only the dependence kernels read them, and
    # their O(Σ m_j²) size should not tax algorithms that never look
    # (majority voting, NC).

    def __post_init__(self) -> None:
        index = self.index
        claims = index.dataset.claims
        claim_counts, group_counts, *segments = _encode_claims(
            index.n_tasks,
            np.array([index.task_pos[t] for _, t in claims], dtype=np.int64),
            np.array([index.worker_pos[w] for w, _ in claims], dtype=np.int64),
            list(claims.values()),
            np.arange(len(claims), dtype=np.int64),
        )
        _assemble_claim_arrays(
            self, index, _offsets(claim_counts), _offsets(group_counts), *segments
        )

    @cached_property
    def _pair_tables(self) -> tuple[np.ndarray, ...]:
        """Pair tables: every unordered co-answering pair, one row per
        shared task, grouped by pair and ordered by task within a pair.
        Built on first access — only the dependence kernels need them.
        :meth:`DatasetIndex.extended` never carries them across, so an
        extension builds its own here too.
        """
        return _sorted_pair_tables(self, *_task_claim_pairs(self))

    @property
    def pair_a(self) -> np.ndarray:
        """First (smaller) worker of each co-answering pair."""
        return self._pair_tables[0]

    @property
    def pair_b(self) -> np.ndarray:
        """Second worker of each co-answering pair."""
        return self._pair_tables[1]

    @property
    def pair_ptr(self) -> np.ndarray:
        """CSR pointer slicing the ``ps_*`` rows per pair."""
        return self._pair_tables[2]

    @property
    def ps_pair(self) -> np.ndarray:
        """Pair index of each (pair, shared task) row."""
        return self._pair_tables[3]

    @property
    def ps_task(self) -> np.ndarray:
        """Task index of each (pair, shared task) row."""
        return self._pair_tables[4]

    @property
    def ps_claim_a(self) -> np.ndarray:
        """Claim position of ``pair_a``'s claim on the row's task."""
        return self._pair_tables[5]

    @property
    def ps_claim_b(self) -> np.ndarray:
        """Claim position of ``pair_b``'s claim on the row's task."""
        return self._pair_tables[6]

    @cached_property
    def pair_row_same(self) -> np.ndarray:
        """Per pair-table row: do the pair's two claims carry one value?

        Static for the life of the arrays — claim codes never change.
        Its true rows are the same-group pair rows
        :attr:`multi_group_slots` scatters.
        """
        return self.claim_code[self.ps_claim_a] == self.claim_code[self.ps_claim_b]

    @cached_property
    def pair_rows_by_task(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR over tasks of the (pair, shared task) row positions.

        ``ptr, rows = pair_rows_by_task`` slices, per task ``j``, the
        positions ``rows[ptr[j]:ptr[j + 1]]`` of every pair-table row
        whose shared task is ``j`` (in ascending row order — the argsort
        is stable).  This is the lookup the incremental dependence
        engine uses to find the rows invalidated by a change to task
        ``j`` without scanning all of ``ps_task``.
        """
        n_tasks = self.index.n_tasks
        ps_task = self.ps_task
        rows = np.argsort(ps_task, kind="stable")
        return _offsets(np.bincount(ps_task, minlength=n_tasks)), rows

    # -- derived sizes ---------------------------------------------------

    @property
    def n_claims(self) -> int:
        return len(self.claim_task)

    @property
    def n_groups(self) -> int:
        return len(self.group_task)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_a)

    @cached_property
    def multi_groups(self) -> np.ndarray:
        """Indexes of value groups with at least two providers.

        Only these need the greedy dependence-discount ordering; groups
        of one worker have independence probability 1 by definition.
        """
        return np.flatnonzero(self.group_size >= 2)

    @cached_property
    def multi_group_buckets(self) -> list[tuple[int, np.ndarray]]:
        """Multi-provider groups bucketed by size: ``(m, claim_indexes)``.

        ``claim_indexes`` is a ``(n_groups_of_size_m, m)`` matrix of
        claim positions, so the greedy independence ordering can run
        batched over every group of one size at once instead of looping
        per group (the sequential part of Eq. 16 then costs one small
        Python loop per *distinct group size*, not per group).
        """
        buckets: list[tuple[int, np.ndarray]] = []
        multi = self.multi_groups
        if len(multi) == 0:
            return buckets
        sizes = self.group_size[multi]
        for m in np.unique(sizes):
            groups = multi[sizes == m]
            starts = self.group_ptr[groups]
            buckets.append((int(m), starts[:, None] + np.arange(int(m))[None, :]))
        return buckets

    @cached_property
    def multi_group_slots(self) -> list[np.ndarray]:
        """Pair slots of every member pair, aligned with the buckets.

        For the ``(G, m)`` bucket of :attr:`multi_group_buckets`, a
        ``(G, m, m)`` array whose ``[g, k, l]`` entry indexes
        ``concat([p_ab, p_ba, [0.0]])`` at ``P(member k -> member l)``:
        slot ``p`` when ``k < l`` (workers ascend within a group, so
        member ``k`` is ``pair_a`` of pair ``p``), ``n_pairs + p`` when
        ``k > l``, and the trailing ``2 * n_pairs`` on the diagonal.
        The layout depends only on the claims, so Eq. 16 gathers its
        member-pair dependence with one ``take`` per bucket.  Built by
        a single scatter of the same-group pair rows — the rows of
        :attr:`pair_row_same`, since a row's two claims share its task.
        """
        buckets = self.multi_group_buckets
        n_pairs = self.n_pairs
        # Flat offset of each bucket, and of each multi-provider group's
        # m x m block.
        bucket_start = []
        block = np.zeros(self.n_groups, dtype=np.int64)
        total = 0
        for m, claim_idx in buckets:
            bucket_start.append(total)
            block[self.claim_group[claim_idx[:, 0]]] = total + m * m * np.arange(len(claim_idx))
            total += claim_idx.size * m
        flat = np.full(total, 2 * n_pairs, dtype=np.intp)
        same = np.flatnonzero(self.pair_row_same)
        claim_a = self.ps_claim_a[same]
        claim_b = self.ps_claim_b[same]
        group = self.claim_group[claim_a]
        start = self.group_ptr[group]
        size = self.group_size[group]
        local_a = claim_a - start
        local_b = claim_b - start
        pair = self.ps_pair[same]
        flat[block[group] + local_a * size + local_b] = pair
        flat[block[group] + local_b * size + local_a] = pair + n_pairs
        return [
            flat[begin : begin + claim_idx.size * m].reshape(-1, m, m)
            for begin, (m, claim_idx) in zip(bucket_start, buckets)
        ]

    # -- conversions between codes and values ----------------------------

    def truth_values(self, truth_codes: np.ndarray) -> list[str | None]:
        """Decode per-task truth codes (-1 = no claims) back to strings."""
        out: list[str | None] = []
        for j in range(self.index.n_tasks):
            code = int(truth_codes[j])
            if code < 0:
                out.append(None)
            else:
                out.append(self.group_values[int(self.task_group_ptr[j]) + code])
        return out

    def code_of(self, j: int, value: str | None) -> int:
        """Code of ``value`` within task ``j``'s value groups (-1 if absent)."""
        values = self.group_values[self.task_group_ptr[j] : self.task_group_ptr[j + 1]]
        return values.index(value) if value in values else -1

    def truth_codes(self, truths: list[str | None]) -> np.ndarray:
        """Encode per-task truth strings to codes (-1 for None/unknown)."""
        codes = np.full(self.index.n_tasks, -1, dtype=np.int64)
        for j, value in enumerate(truths):
            codes[j] = self.code_of(j, value)
        return codes

    def majority_codes(self) -> np.ndarray:
        """Per-task majority value code (ties to the smallest code).

        Ties go to the lexicographically smallest value: codes are
        assigned in sorted value order, so "smallest code" is exactly
        that tie-break.
        """
        return segment_first_argmax_code(
            self.group_size.astype(np.float64),
            self.group_task,
            self.group_code,
            self.task_group_ptr,
        )


def segment_first_argmax_code(
    values: np.ndarray,
    group_task: np.ndarray,
    group_code: np.ndarray,
    task_group_ptr: np.ndarray,
) -> np.ndarray:
    """Per task, the code of the first group achieving the segment max.

    ``values`` is one score per value group; groups of a task are
    contiguous and ordered by code, so the first maximal group is the
    lexicographically smallest winning value.  Tasks with no groups get
    ``-1``.
    """
    n_tasks = len(task_group_ptr) - 1
    out = np.full(n_tasks, -1, dtype=np.int64)
    if len(values) == 0:
        return out
    starts = task_group_ptr[:-1]
    nonempty = task_group_ptr[1:] > starts
    # Groups tile the array, so reduceat over the starts of non-empty
    # tasks reduces exactly one task's segment each.
    seg_max = np.maximum.reduceat(values, starts[nonempty])
    max_of_task = np.full(n_tasks, -np.inf)
    max_of_task[nonempty] = seg_max
    hit = np.flatnonzero(values == max_of_task[group_task])
    tasks_hit, first = np.unique(group_task[hit], return_index=True)
    out[tasks_hit] = group_code[hit[first]]
    return out


# ----------------------------------------------------------------------
# Incremental ClaimArrays extension
# ----------------------------------------------------------------------


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``[arange(s, s + l) for s, l in zip(starts, lengths)]``.

    The standard cumsum trick: one pass, no Python loop — this is what
    keeps splicing the clean CSR segments a bulk copy.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    nonempty = lengths > 0
    starts = np.asarray(starts, dtype=np.int64)[nonempty]
    lengths = lengths[nonempty]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(lengths)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(out)


def _extend_claim_arrays(
    old: ClaimArrays,
    index: DatasetIndex,
    dirty: np.ndarray,
    batch_task: np.ndarray,
    batch_worker: np.ndarray,
    batch_values: list[str],
) -> tuple[ClaimArrays, np.ndarray]:
    """Splice ``old`` into arrays for the extended ``index``.

    Dirty tasks are re-encoded from their old claims, read back from
    ``old``, plus the batch's claims (the only Python work proportional
    to the batch); clean task segments move as bulk gathers.  Task
    positions of pre-existing tasks are stable, so a clean task's
    claims keep their ``(worker, code)`` rows and only their global
    positions shift.  Returns the new arrays and the ``old claim
    position -> new claim position`` map.
    """
    n_tasks = index.n_tasks
    old_n_tasks = old.index.n_tasks
    dirty_mask = np.zeros(n_tasks, dtype=bool)
    dirty_mask[dirty] = True
    clean = np.flatnonzero(~dirty_mask[:old_n_tasks])
    stale = dirty[dirty < old_n_tasks]

    old_claim_counts = np.diff(old.task_ptr)
    old_group_counts = np.diff(old.task_group_ptr)
    osrc = _concat_ranges(old.task_ptr[stale], old_claim_counts[stale])
    claim_counts, group_counts, d_worker, d_code, d_seq, d_size, d_values = _encode_claims(
        n_tasks,
        np.concatenate([old.claim_task[osrc], batch_task]),
        np.concatenate([old.claim_worker[osrc], batch_worker]),
        [old.group_values[g] for g in old.claim_group[osrc].tolist()] + batch_values,
        np.concatenate(
            [old.claim_seq[osrc], old.n_claims + np.arange(len(batch_task), dtype=np.int64)]
        ),
    )
    d_claims = claim_counts[dirty]
    d_groups = group_counts[dirty]
    claim_counts[clean] = old_claim_counts[clean]
    group_counts[clean] = old_group_counts[clean]
    task_ptr = _offsets(claim_counts)
    task_group_ptr = _offsets(group_counts)

    claim_worker = np.empty(task_ptr[-1], dtype=np.int64)
    claim_code = np.empty(task_ptr[-1], dtype=np.int64)
    claim_seq = np.empty(task_ptr[-1], dtype=np.int64)
    group_size = np.empty(task_group_ptr[-1], dtype=np.int64)
    group_values = np.empty(task_group_ptr[-1], dtype=object)

    # Clean segments: bulk gather from the old arrays.
    src = _concat_ranges(old.task_ptr[clean], old_claim_counts[clean])
    dst = _concat_ranges(task_ptr[clean], old_claim_counts[clean])
    claim_worker[dst] = old.claim_worker[src]
    claim_code[dst] = old.claim_code[src]
    claim_seq[dst] = old.claim_seq[src]
    gsrc = _concat_ranges(old.task_group_ptr[clean], old_group_counts[clean])
    gdst = _concat_ranges(task_group_ptr[clean], old_group_counts[clean])
    group_size[gdst] = old.group_size[gsrc]
    group_values[gdst] = np.asarray(old.group_values, dtype=object)[gsrc]

    # Dirty segments: scatter the fresh encodings.
    ddst = _concat_ranges(task_ptr[dirty], d_claims)
    claim_worker[ddst] = d_worker
    claim_code[ddst] = d_code
    claim_seq[ddst] = d_seq
    gddst = _concat_ranges(task_group_ptr[dirty], d_groups)
    group_size[gddst] = d_size
    group_values[gddst] = np.asarray(d_values, dtype=object)

    # Old -> new claim positions: every claim keeps its arrival position.
    position = np.empty(len(claim_seq), dtype=np.int64)
    position[claim_seq] = np.arange(len(claim_seq), dtype=np.int64)
    claim_map = position[old.claim_seq]

    arrays = _assemble_claim_arrays(
        object.__new__(ClaimArrays),
        index,
        task_ptr,
        task_group_ptr,
        claim_worker,
        claim_code,
        claim_seq,
        group_size,
        tuple(group_values),
    )
    return arrays, claim_map


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR pointer over ``counts``: ``[0, c_0, c_0 + c_1, ...]``."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _encode_claims(
    n_tasks: int,
    task: np.ndarray,
    worker: np.ndarray,
    values: list[str],
    seq: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Integer-code claims given as parallel per-claim columns.

    Each task's distinct values are numbered in sorted order and the
    claims sorted by (task, code, worker).  Returns the claim and group
    counts of every one of ``n_tasks`` tasks (0 for tasks without
    claims here), then the sorted claims' workers, codes and arrival
    positions, and the groups' sizes and values.
    """
    # Number the distinct values in sorted order; one unique over
    # ``task * n_values + rank`` then yields the groups in (task, code)
    # order.
    ids: dict[str, int] = {}
    value_id = np.fromiter((ids.setdefault(v, len(ids)) for v in values), np.int64, len(values))
    names = sorted(ids)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[ids[v] for v in names]] = np.arange(len(names), dtype=np.int64)
    n_values = max(len(names), 1)
    keys, claim_group = np.unique(task * n_values + rank[value_id], return_inverse=True)
    group_task, group_rank = np.divmod(keys, n_values)
    group_counts = np.bincount(group_task, minlength=n_tasks)
    group_code = np.arange(len(keys), dtype=np.int64) - _offsets(group_counts)[group_task]
    order = np.lexsort((worker, claim_group))
    return (
        np.bincount(task, minlength=n_tasks),
        group_counts,
        worker[order],
        group_code[claim_group[order]],
        seq[order],
        np.bincount(claim_group, minlength=len(keys)),
        tuple(names[r] for r in group_rank.tolist()),
    )


def _assemble_claim_arrays(
    arrays: ClaimArrays,
    index: DatasetIndex,
    task_ptr: np.ndarray,
    task_group_ptr: np.ndarray,
    claim_worker: np.ndarray,
    claim_code: np.ndarray,
    claim_seq: np.ndarray,
    group_size: np.ndarray,
    group_values: tuple[str, ...],
) -> ClaimArrays:
    """Set ``arrays``' fields from its per-task claim and group segments.

    In (task, code, worker) order, group index = task group start +
    code (codes are consecutive 0..K_j-1), so the remaining structures
    are pure arithmetic on the segments.  The cold build,
    :meth:`DatasetIndex.extended` and :meth:`DatasetIndex.restricted`
    all finish here.
    """
    n_tasks, n_workers = index.n_tasks, index.n_workers
    claim_task = np.repeat(np.arange(n_tasks, dtype=np.int64), np.diff(task_ptr))
    group_task = np.repeat(np.arange(n_tasks, dtype=np.int64), np.diff(task_group_ptr))
    group_code = np.arange(len(group_size), dtype=np.int64) - task_group_ptr[group_task]
    fields = {
        "index": index,
        "claim_task": claim_task,
        "claim_worker": claim_worker,
        "claim_code": claim_code,
        "claim_group": task_group_ptr[claim_task] + claim_code,
        "claim_seq": claim_seq,
        "task_ptr": task_ptr,
        "group_ptr": _offsets(group_size),
        "group_task": group_task,
        "group_code": group_code,
        "group_size": group_size,
        "group_values": group_values,
        "task_group_ptr": task_group_ptr,
        # Worker -> claim CSR: claim indexes sorted by (worker, task).
        "worker_ptr": _offsets(np.bincount(claim_worker, minlength=n_workers)),
        "worker_claims": np.lexsort((claim_task, claim_worker)),
    }
    for name, value in fields.items():
        object.__setattr__(arrays, name, value)
    return arrays


def pair_row_keys(
    first: np.ndarray,
    second: np.ndarray,
    task: np.ndarray,
    n_workers: int,
    n_tasks: int,
) -> np.ndarray:
    """Unique int64 key ``(first · n_workers + second) · n_tasks + task``
    of each (worker pair, shared task) row.

    Ascending keys are the pair tables' row order — by first worker,
    then second worker, then task — so one ``argsort`` replaces a
    three-key ``lexsort``.  The largest key is ``n_workers² · n_tasks
    - 1``; campaigns whose keys would not fit in int64 are refused
    rather than allowed to wrap.
    """
    if n_workers * n_workers * n_tasks >= 2**63:
        raise DataFormatError(
            f"{n_workers} workers x {n_tasks} tasks overflow the int64 "
            "pair-row key"
        )
    return (first * n_workers + second) * n_tasks + task


def _task_claim_pairs(arrays: ClaimArrays) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of claims on one task, smaller worker's claim first.

    The upper triangles of the tasks' claim blocks with each block
    ordered by worker, enumerated by arithmetic instead of a per-task
    ``triu_indices`` loop: the claim at offset ``k`` of a block ending
    at ``e`` pairs with the ``e - k - 1`` claims after it, so the first
    claims repeat each offset that many times and the second ones
    concatenate the ranges ``k + 1 .. e - 1``.
    """
    claim_task = arrays.claim_task
    claims = np.argsort(claim_task * arrays.index.n_workers + arrays.claim_worker)
    offsets = np.arange(len(claims), dtype=np.int64)
    later = arrays.task_ptr[claim_task + 1] - offsets - 1
    return claims[np.repeat(offsets, later)], claims[_concat_ranges(offsets + 1, later)]


def _sorted_pair_tables(
    arrays: ClaimArrays, claim_a: np.ndarray, claim_b: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The seven pair tables from same-task claim pairs whose first
    claim is the smaller worker's.

    Sorts the rows by :func:`pair_row_keys` (unique, so the order is
    fully determined), reads worker pair and task back off the sorted
    keys, and starts a new pair segment wherever the worker pair
    changes.
    """
    if len(claim_a) == 0:
        empty = np.empty(0, dtype=np.int64)
        return (empty, empty, np.zeros(1, dtype=np.int64), empty, empty, empty, empty)
    n_workers, n_tasks = arrays.index.n_workers, arrays.index.n_tasks
    keys = pair_row_keys(
        arrays.claim_worker[claim_a],
        arrays.claim_worker[claim_b],
        arrays.claim_task[claim_a],
        n_workers,
        n_tasks,
    )
    order = np.argsort(keys)
    pair_keys, tasks = np.divmod(keys[order], n_tasks)
    next_pair = np.empty(len(keys), dtype=bool)
    next_pair[0] = False
    np.not_equal(pair_keys[1:], pair_keys[:-1], out=next_pair[1:])
    pair_ptr = np.concatenate(([0], np.flatnonzero(next_pair), [len(keys)]))
    pair_a, pair_b = np.divmod(pair_keys[pair_ptr[:-1]], n_workers)
    return (
        pair_a,
        pair_b,
        pair_ptr,
        np.cumsum(next_pair, dtype=np.int64),
        tasks,
        claim_a[order],
        claim_b[order],
    )
