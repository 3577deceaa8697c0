"""Integer-indexed views of a :class:`~repro.types.Dataset`.

DATE's inner loops touch the same derived structures every iteration:
claims by task, value groups ``W_v^j``, the co-answering worker pairs,
and each pair's shared tasks.  :class:`DatasetIndex` computes them once,
mapping string ids to dense integer indexes so the hot paths work on
ints and numpy arrays.

:class:`ClaimArrays` (reachable as :attr:`DatasetIndex.arrays`) goes one
step further: every claim value is replaced by a small per-task integer
code and all per-claim, per-value-group and per-worker-pair structures
are flattened into contiguous numpy arrays (CSR style).  The DATE
kernels (:mod:`repro.core.engine`) run entirely on these arrays; see
DESIGN.md §7 for the encoding.

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

__all__ = ["ClaimArrays", "DatasetIndex", "IndexExtension", "PairRowClass"]


class DatasetIndex:
    """Precomputed integer-indexed structures for one dataset.

    The index is read-only; all algorithms in :mod:`repro.core` and
    :mod:`repro.baselines` accept either a dataset (and build an index
    internally) or a prebuilt index (to share the cost across
    algorithms, as the benchmark harness does).
    """

    def __init__(self, dataset: Dataset):
        #: The encoded campaign; ``None`` on a :meth:`restricted` view.
        self.dataset: Dataset | None = dataset
        #: Task records in index order (closed domains, ground truths).
        self.tasks: tuple[Task, ...] = dataset.tasks
        #: Task ids in dataset order; positions are the task indexes used below.
        self.task_ids: list[str] = [t.task_id for t in dataset.tasks]
        #: Worker ids in dataset order; positions are the worker indexes.
        self.worker_ids: list[str] = [w.worker_id for w in dataset.workers]
        self.task_pos: dict[str, int] = {t: j for j, t in enumerate(self.task_ids)}
        self.worker_pos: dict[str, int] = {w: i for i, w in enumerate(self.worker_ids)}

        #: ``claims_by_task[j]`` is ``{worker_index: value}``.
        self.claims_by_task: list[dict[int, str]] = [{} for _ in self.task_ids]
        for (worker_id, task_id), value in dataset.claims.items():
            self.claims_by_task[self.task_pos[task_id]][self.worker_pos[worker_id]] = value

        #: ``value_groups[j]`` is ``{value: sorted tuple of worker indexes}``
        #: (the paper's ``W_v^j``), with values in sorted order for
        #: deterministic iteration.
        self.value_groups: list[dict[str, tuple[int, ...]]] = [
            _value_groups(claims) for claims in self.claims_by_task
        ]
        #: Effective ``num_j`` (count of false values) per task; see
        #: :func:`_num_false`.
        self.num_false = np.array(
            [_num_false(t, g) for t, g in zip(self.tasks, self.value_groups)],
            dtype=np.int64,
        )

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def n_workers(self) -> int:
        return len(self.worker_ids)

    @cached_property
    def arrays(self) -> "ClaimArrays":
        """The integer-coded, flattened claim arrays for this dataset."""
        return ClaimArrays(self)

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
        every other per-task structure — claim dicts, value groups, CSR
        segments of :attr:`arrays` — is shared or bulk-copied from this
        index, so the cost is O(affected segments + memcpy), not a full
        re-encode.  ``self`` is left untouched and remains valid.

        Raises :class:`~repro.errors.DataFormatError` for ids that
        collide with existing ones, claims referencing unknown tasks or
        workers, out-of-domain values, and duplicate ``(worker, task)``
        claims — the invariants streaming replay depends on.
        """
        tasks = tuple(tasks)
        workers = tuple(workers)
        claims = dict(claims or {})
        self._validate_extension(tasks, workers, claims)

        old_n_tasks, old_n_workers = self.n_tasks, self.n_workers
        merged = dict(self.dataset.claims)
        merged.update(claims)
        dataset = _dataset_append(self.dataset, tasks, workers, merged)

        new = object.__new__(DatasetIndex)
        new.dataset = dataset
        new.tasks = dataset.tasks
        new.task_ids = self.task_ids + [t.task_id for t in tasks]
        new.worker_ids = self.worker_ids + [w.worker_id for w in workers]
        new.task_pos = dict(self.task_pos)
        for offset, task in enumerate(tasks):
            new.task_pos[task.task_id] = old_n_tasks + offset
        new.worker_pos = dict(self.worker_pos)
        for offset, worker in enumerate(workers):
            new.worker_pos[worker.worker_id] = old_n_workers + offset

        dirty_set = {new.task_pos[task_id] for (_, task_id) in claims}
        dirty_set.update(range(old_n_tasks, len(new.task_ids)))
        dirty = np.asarray(sorted(dirty_set), dtype=np.int64)

        # Copy-on-write: dirty tasks get fresh dicts; clean ones are
        # shared with the old, read-only index.
        by_task = list(self.claims_by_task) + [{} for _ in tasks]
        for j in dirty_set:
            if j < old_n_tasks:
                by_task[j] = dict(by_task[j])
        for (worker_id, task_id), value in claims.items():
            by_task[new.task_pos[task_id]][new.worker_pos[worker_id]] = value
        new.claims_by_task = by_task

        new.value_groups = list(self.value_groups) + [{} for _ in tasks]
        new.num_false = np.empty(len(new.task_ids), dtype=np.int64)
        new.num_false[:old_n_tasks] = self.num_false
        for j in dirty.tolist():
            new.value_groups[j] = _value_groups(by_task[j])
            new.num_false[j] = _num_false(new.tasks[j], new.value_groups[j])

        claim_map = None
        if "arrays" in self.__dict__:
            arrays, claim_map = _extend_claim_arrays(
                self.arrays, new, dirty, old_n_tasks
            )
            new.__dict__["arrays"] = arrays
        return IndexExtension(
            index=new,
            dirty_tasks=dirty,
            new_task_positions=np.arange(old_n_tasks, new.n_tasks, dtype=np.int64),
            new_worker_positions=np.arange(
                old_n_workers, new.n_workers, dtype=np.int64
            ),
            claim_map=claim_map,
        )

    def restricted(self, tasks: np.ndarray) -> tuple["DatasetIndex", np.ndarray]:
        """A read-only view over ``tasks`` and the workers answering them.

        Streaming runs its dirty-scope re-estimation on this view.
        ``tasks`` are ascending task positions; tasks and workers keep
        this index's order, workers compressed to the claimants, and
        each task keeps its claims in arrival order.  The CSR segments
        of :attr:`arrays` are gathered from this index's arrays rather
        than re-encoded; pair tables and the slot map stay lazy over the
        view's own CSR.  Field by field the view equals a cold index of
        the induced sub-campaign.  It has no ``dataset`` and cannot be
        extended.

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

        view = object.__new__(DatasetIndex)
        view.dataset = None
        task_list = tasks.tolist()
        view.tasks = tuple(self.tasks[j] for j in task_list)
        view.task_ids = [self.task_ids[j] for j in task_list]
        view.worker_ids = [self.worker_ids[i] for i in workers.tolist()]
        view.task_pos = {t: j for j, t in enumerate(view.task_ids)}
        view.worker_pos = {w: i for i, w in enumerate(view.worker_ids)}
        local = dict(zip(workers.tolist(), range(len(workers))))
        view.claims_by_task = [
            {local[i]: value for i, value in self.claims_by_task[j].items()}
            for j in task_list
        ]
        view.value_groups = [_value_groups(claims) for claims in view.claims_by_task]
        view.num_false = self.num_false[tasks]
        view.__dict__["arrays"] = _assemble_claim_arrays(
            object.__new__(ClaimArrays),
            view,
            _offsets(claim_counts),
            _offsets(group_counts),
            claim_worker.astype(np.int64, copy=False),
            parent.claim_code[positions],
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
                i = self.worker_pos.get(worker_id)
                if i is not None and i in self.claims_by_task[j]:
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
    new_task_positions / new_worker_positions:
        Positions of the appended tasks / workers in the new index.
    claim_map:
        ``old claim position -> new claim position`` into the extended
        :class:`ClaimArrays`, for carrying per-claim state (for example
        accuracies) across the extension.  ``None`` when the source
        index never materialized its ``arrays`` (the new index then
        encodes lazily from scratch on first use).
    """

    index: DatasetIndex
    dirty_tasks: np.ndarray
    new_task_positions: np.ndarray
    new_worker_positions: np.ndarray
    claim_map: np.ndarray | None


@dataclass(frozen=True)
class PairRowClass:
    """Pair-table rows of one static class, with their inputs gathered.

    ``rows`` are positions into the ``ps_*`` tables (ascending in the
    cached :attr:`ClaimArrays.pair_row_classes`); ``claim_a``,
    ``claim_b`` and ``task`` are those rows' ``ps_claim_a``,
    ``ps_claim_b`` and ``ps_task``; ``code`` is the value code both
    claims share in the same-value class and ``None`` in the differing
    class.  Slicing slices every field.
    """

    rows: np.ndarray
    claim_a: np.ndarray
    claim_b: np.ndarray
    task: np.ndarray
    code: np.ndarray | None

    def __getitem__(self, part: slice) -> "PairRowClass":
        return PairRowClass(
            rows=self.rows[part],
            claim_a=self.claim_a[part],
            claim_b=self.claim_b[part],
            task=self.task[part],
            code=None if self.code is None else self.code[part],
        )


def _value_groups(claims: dict[int, str]) -> dict[str, tuple[int, ...]]:
    """One task's ``W_v^j``: ``{value: ascending worker indexes}`` with
    values in sorted order, for deterministic iteration."""
    groups: dict[str, list[int]] = {}
    for i, value in claims.items():
        groups.setdefault(value, []).append(i)
    return {v: tuple(sorted(ws)) for v, ws in sorted(groups.items())}


def _num_false(task: Task, groups: dict[str, tuple[int, ...]]) -> int:
    """Effective ``num_j``: the declared closed-domain size minus one, or
    the observed number of distinct values minus one for open domains;
    at least 1 so the false-value probability ``(1 - A)/num`` stays
    finite."""
    return max(task.num_false if task.domain else len(groups) - 1, 1)


def _dataset_append(
    old: Dataset,
    tasks: tuple[Task, ...],
    workers: tuple[WorkerProfile, ...],
    merged_claims: dict[tuple[str, str], str],
) -> Dataset:
    """Assemble the extended :class:`Dataset` without re-validation.

    ``Dataset.__post_init__`` walks every claim; the caller has already
    validated the delta against a known-valid dataset, so the extended
    snapshot is assembled field-by-field to keep the append path
    O(affected).
    """
    dataset = object.__new__(Dataset)
    object.__setattr__(dataset, "tasks", old.tasks + tasks)
    object.__setattr__(dataset, "workers", old.workers + workers)
    object.__setattr__(dataset, "claims", merged_claims)
    return dataset


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
    - and, within a group, workers ascending (matching the sorted
      tuples of :attr:`DatasetIndex.value_groups`).

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
        claim_counts, group_counts, *segments = _encode_tasks(index, range(index.n_tasks))
        _assemble_claim_arrays(
            self, index, _offsets(claim_counts), _offsets(group_counts), *segments
        )

    @cached_property
    def _pair_tables(self) -> tuple[np.ndarray, ...]:
        """Pair tables: every unordered co-answering pair, one row per
        shared task, grouped by pair and ordered by task within a pair.
        Built on first
        access — only the dependence kernels need them.
        """
        all_tasks = np.arange(self.index.n_tasks, dtype=np.int64)
        return _sorted_pair_tables(self, *_task_claim_pairs(self, all_tasks))

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

        Static for the life of the arrays — claim codes never change —
        which is what lets the dependence kernel score the two classes
        with separate formulas (same-value rows are the only ones whose
        likelihood depends on the current truth).
        """
        return self.claim_code[self.ps_claim_a] == self.claim_code[self.ps_claim_b]

    @cached_property
    def pair_row_classes(self) -> tuple["PairRowClass", "PairRowClass"]:
        """All pair-table rows as ``(same_value, differing)`` classes."""
        same = self.pair_row_same
        return (
            self.pair_row_class(np.flatnonzero(same), same=True),
            self.pair_row_class(np.flatnonzero(~same), same=False),
        )

    def pair_row_class(self, rows: np.ndarray, *, same: bool) -> "PairRowClass":
        """The pair-table ``rows`` (all of one class) with their inputs."""
        claim_a = self.ps_claim_a[rows]
        return PairRowClass(
            rows=rows,
            claim_a=claim_a,
            claim_b=self.ps_claim_b[rows],
            task=self.ps_task[rows],
            code=self.claim_code[claim_a] if same else None,
        )

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
        a single scatter of the same-group pair rows — the same-value
        class of :attr:`pair_row_classes`, since a row's two claims
        share its task.
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
        same = self.pair_row_classes[0]
        group = self.claim_group[same.claim_a]
        start = self.group_ptr[group]
        size = self.group_size[group]
        local_a = same.claim_a - start
        local_b = same.claim_b - start
        pair = self.ps_pair[same.rows]
        flat[block[group] + local_a * size + local_b] = pair
        flat[block[group] + local_b * size + local_a] = pair + n_pairs
        return [
            flat[begin : begin + claim_idx.size * m].reshape(-1, m, m)
            for begin, (m, claim_idx) in zip(bucket_start, buckets)
        ]

    @cached_property
    def code_lookup(self) -> list[dict[str, int]]:
        """Per-task ``value -> code`` maps (for warm starts and tests)."""
        lookup: list[dict[str, int]] = [dict() for _ in range(self.index.n_tasks)]
        for g in range(self.n_groups):
            lookup[int(self.group_task[g])][self.group_values[g]] = int(
                self.group_code[g]
            )
        return lookup

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

    def truth_codes(self, truths: list[str | None]) -> np.ndarray:
        """Encode per-task truth strings to codes (-1 for None/unknown)."""
        codes = np.full(self.index.n_tasks, -1, dtype=np.int64)
        lookup = self.code_lookup
        for j, value in enumerate(truths):
            if value is not None:
                codes[j] = lookup[j].get(value, -1)
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
    old_n_tasks: int,
) -> tuple[ClaimArrays, np.ndarray]:
    """Splice ``old`` into arrays for the extended ``index``.

    Dirty tasks are re-encoded from ``index.value_groups`` (the only
    Python loop proportional to the batch); clean task segments move as
    bulk gathers.  Task positions of pre-existing tasks are stable, so
    a clean task's claims keep their ``(worker, code)`` rows and only
    their global positions shift.  Returns the new arrays and the
    ``old claim position -> new claim position`` map.
    """
    n_tasks = index.n_tasks
    dirty_mask = np.zeros(n_tasks, dtype=bool)
    dirty_mask[dirty] = True
    clean = np.flatnonzero(~dirty_mask[:old_n_tasks])

    old_claim_counts = np.diff(old.task_ptr)
    old_group_counts = np.diff(old.task_group_ptr)
    claim_counts = np.zeros(n_tasks, dtype=np.int64)
    group_counts = np.zeros(n_tasks, dtype=np.int64)
    claim_counts[:old_n_tasks] = old_claim_counts
    group_counts[:old_n_tasks] = old_group_counts
    d_claims, d_groups, d_worker, d_code, d_size, d_values = _encode_tasks(
        index, dirty.tolist()
    )
    claim_counts[dirty] = d_claims
    group_counts[dirty] = d_groups
    task_ptr = _offsets(claim_counts)
    task_group_ptr = _offsets(group_counts)

    claim_worker = np.empty(task_ptr[-1], dtype=np.int64)
    claim_code = np.empty(task_ptr[-1], dtype=np.int64)
    group_size = np.empty(task_group_ptr[-1], dtype=np.int64)
    group_values = np.empty(task_group_ptr[-1], dtype=object)

    # Clean segments: bulk gather from the old arrays.
    src = _concat_ranges(old.task_ptr[clean], old_claim_counts[clean])
    dst = _concat_ranges(task_ptr[clean], old_claim_counts[clean])
    claim_worker[dst] = old.claim_worker[src]
    claim_code[dst] = old.claim_code[src]
    gsrc = _concat_ranges(old.task_group_ptr[clean], old_group_counts[clean])
    gdst = _concat_ranges(task_group_ptr[clean], old_group_counts[clean])
    group_size[gdst] = old.group_size[gsrc]
    group_values[gdst] = np.asarray(old.group_values, dtype=object)[gsrc]

    # Dirty segments: scatter the fresh encodings.
    ddst = _concat_ranges(task_ptr[dirty], d_claims)
    claim_worker[ddst] = d_worker
    claim_code[ddst] = d_code
    gddst = _concat_ranges(task_group_ptr[dirty], d_groups)
    group_size[gddst] = d_size
    group_values[gddst] = np.asarray(d_values, dtype=object)

    # Old -> new claim positions: clean claims moved with their
    # segment; an old claim of a dirty task lands on its re-encoded
    # (task, worker) slot.
    claim_map = np.empty(old.n_claims, dtype=np.int64)
    claim_map[src] = dst
    stale = dirty[dirty < old_n_tasks]
    osrc = _concat_ranges(old.task_ptr[stale], old_claim_counts[stale])
    new_keys = np.repeat(dirty, d_claims) * index.n_workers + d_worker
    old_keys = old.claim_task[osrc] * index.n_workers + old.claim_worker[osrc]
    order = np.argsort(new_keys)
    claim_map[osrc] = ddst[order[np.searchsorted(new_keys, old_keys, sorter=order)]]

    arrays = _assemble_claim_arrays(
        object.__new__(ClaimArrays),
        index,
        task_ptr,
        task_group_ptr,
        claim_worker,
        claim_code,
        group_size,
        tuple(group_values),
    )
    if "_pair_tables" in old.__dict__:
        arrays.__dict__["_pair_tables"] = _extend_pair_tables(
            old, arrays, dirty, dirty_mask, claim_map
        )
    return arrays, claim_map


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR pointer over ``counts``: ``[0, c_0, c_0 + c_1, ...]``."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _encode_tasks(
    index: DatasetIndex, tasks: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[str, ...]]:
    """Integer-code ``tasks`` from ``index.value_groups``.

    Values are numbered in sorted order and each group's workers ascend,
    so concatenating the groups yields the (task, code, worker) claim
    order.  Returns the per-task claim and group counts, then the
    concatenated claim workers, claim codes, group sizes and group
    values.
    """
    claim_counts: list[int] = []
    group_counts: list[int] = []
    claim_worker: list[int] = []
    claim_code: list[int] = []
    group_size: list[int] = []
    group_values: list[str] = []
    for j in tasks:
        groups = index.value_groups[j]
        claim_counts.append(len(index.claims_by_task[j]))
        group_counts.append(len(groups))
        group_values.extend(groups)
        for code, workers in enumerate(groups.values()):
            group_size.append(len(workers))
            claim_worker.extend(workers)
            claim_code.extend([code] * len(workers))
    return (
        np.asarray(claim_counts, dtype=np.int64),
        np.asarray(group_counts, dtype=np.int64),
        np.asarray(claim_worker, dtype=np.int64),
        np.asarray(claim_code, dtype=np.int64),
        np.asarray(group_size, dtype=np.int64),
        tuple(group_values),
    )


def _assemble_claim_arrays(
    arrays: ClaimArrays,
    index: DatasetIndex,
    task_ptr: np.ndarray,
    task_group_ptr: np.ndarray,
    claim_worker: np.ndarray,
    claim_code: np.ndarray,
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


def _extend_pair_tables(
    old: ClaimArrays,
    arrays: ClaimArrays,
    dirty: np.ndarray,
    dirty_mask: np.ndarray,
    claim_map: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Extend materialized pair tables: keep clean-task rows, regenerate
    dirty-task rows, merge by one sort.

    Rows of clean tasks keep their worker pair and task; only their
    claim back-pointers shift (via ``claim_map``).  Rows of dirty tasks
    are re-enumerated from the new segments by the cold build's own
    :func:`_task_claim_pairs` — the O(Σ m_j²) triangle work runs over
    affected tasks only.
    """
    old_ps_task, old_ps_ca, old_ps_cb = old._pair_tables[4:]
    keep = ~dirty_mask[old_ps_task]
    dirty_a, dirty_b = _task_claim_pairs(arrays, dirty)
    return _sorted_pair_tables(
        arrays,
        np.concatenate([claim_map[old_ps_ca[keep]], dirty_a]),
        np.concatenate([claim_map[old_ps_cb[keep]], dirty_b]),
    )


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


def _task_claim_pairs(
    arrays: ClaimArrays, tasks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of claims on one of ``tasks`` (ascending), smaller
    worker's claim first.

    The upper triangles of the tasks' claim blocks with each block
    ordered by worker, enumerated by arithmetic instead of a per-task
    ``triu_indices`` loop: the claim at offset ``k`` of a block ending
    at ``e`` pairs with the ``e - k - 1`` claims after it, so the first
    claims repeat each offset that many times and the second ones
    concatenate the ranges ``k + 1 .. e - 1``.
    """
    starts = arrays.task_ptr[tasks]
    sizes = arrays.task_ptr[tasks + 1] - starts
    claims = _concat_ranges(starts, sizes)
    by_worker = arrays.claim_task[claims] * arrays.index.n_workers + arrays.claim_worker[claims]
    claims = claims[np.argsort(by_worker)]
    offsets = np.arange(len(claims), dtype=np.int64)
    later = np.repeat(np.cumsum(sizes), sizes) - offsets - 1
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
