"""Integer-indexed views of a :class:`~repro.types.Dataset`.

DATE's inner loops touch the same derived structures every iteration:
claims by task, value groups ``W_v^j``, the co-answering worker pairs,
and each pair's shared tasks.  :class:`DatasetIndex` computes them once,
mapping string ids to dense integer indexes so the hot paths work on
ints and numpy arrays.

Its claims live in one form, :class:`ClaimArrays` (reachable as
:attr:`DatasetIndex.arrays`, built with the index, and holding no
reference back to it, so reference counting frees both): every claim value is
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
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

import numpy as np

from ..errors import DataFormatError
from ..types import Dataset, Task, WorkerProfile, check_integrity
from .native import address, load_kernels

__all__ = ["ClaimArrays", "DatasetIndex", "IndexExtension"]

_kernels = load_kernels()


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
        self,
        tasks: tuple[Task, ...],
        workers: tuple[WorkerProfile, ...],
        parent: "DatasetIndex | None" = None,
    ) -> None:
        """Set the member tables, ``tasks`` and ``workers`` appended to
        ``parent``'s.  Tables are never mutated, so an extension shares
        its parent's or copies them whole: never rebuilt id by id."""
        #: Worker profiles in index order.
        self.workers = workers if parent is None else parent.workers + workers
        #: Task records in index order (closed domains, ground truths).
        self.tasks = tasks if parent is None else parent.tasks + tasks
        #: Task ids in dataset order, and the position of each: the task
        #: indexes used below.
        self.task_ids, self.task_pos = _appended(
            parent and (parent.task_ids, parent.task_pos), [t.task_id for t in tasks]
        )
        #: Worker ids in dataset order, and the worker index of each.
        self.worker_ids, self.worker_pos = _appended(
            parent and (parent.worker_ids, parent.worker_pos), [w.worker_id for w in workers]
        )

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
        index assembles one from :attr:`tasks`, :attr:`workers` and the
        claims in ``arrays.claim_seq`` order on first read.
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
        the clean tasks between two dirty ones move as one slice copy,
        the batch's claims are merged into the worker CSR, and the
        member tables are shared or copied, so the Python work is
        O(batch + claims of dirty tasks) and the rest is memcpy.
        ``self`` is left untouched and remains valid.

        Only the claim and group encodings are carried.  What the
        arrays derive lazily — the pair tables and everything built on
        them, such as the Eq. 16 slot map — starts unmaterialized on
        the extension even when ``self`` has built it, and is rebuilt
        from the extension's own CSR on first use: an ingest never pays
        O(pair rows), and the rebuild is byte-identical to a cold
        index's (row keys are unique, so the row order is determined).

        Raises what :meth:`validate_extension` raises, before anything
        is built.
        """
        tasks = tuple(tasks)
        workers = tuple(workers)
        claims = dict(claims or {})
        self.validate_extension(tasks=tasks, workers=workers, claims=claims)

        new = object.__new__(DatasetIndex)
        new._set_members(tasks, workers, parent=self)
        batch_task = np.array([new.task_pos[t] for _, t in claims], dtype=np.int64)
        batch_worker = np.array([new.worker_pos[w] for w, _ in claims], dtype=np.int64)
        dirty = np.union1d(batch_task, np.arange(self.n_tasks, new.n_tasks, dtype=np.int64))
        new.arrays, claim_map, moves = _extend_claim_arrays(
            self.arrays, new, dirty, batch_task, batch_worker, list(claims.values())
        )
        return IndexExtension(index=new, dirty_tasks=dirty, claim_map=claim_map, _claim_moves=moves)

    def validate_extension(
        self,
        *,
        tasks: Iterable[Task] = (),
        workers: Iterable[WorkerProfile] = (),
        claims: Mapping[tuple[str, str], str] | None = None,
    ) -> None:
        """Validate a delta without building the extension: the checks
        :meth:`extended` runs (it calls this), :func:`~repro.types.check_integrity`
        against this index, raising :class:`~repro.errors.DataFormatError`
        at the first violation and touching nothing."""
        check_integrity(
            tasks, workers, claims or {}, known_tasks=self.tasks, task_pos=self.task_pos,
            known_workers=self.worker_pos, answered=self._answered,
        )

    def _answered(self, claims: Mapping[tuple[str, str], str]) -> set[tuple[str, str]]:
        """The keys of ``claims`` whose worker already answered the task,
        looked up in the answering workers' segments of the worker CSR."""
        keys = [k for k in claims if k[0] in self.worker_pos and k[1] in self.task_pos]
        if not keys:
            return set()
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
        accuracies) across the extension; :meth:`carried` does it the
        way the extension moved its own columns.
    """

    index: DatasetIndex
    dirty_tasks: np.ndarray
    claim_map: np.ndarray
    # How the claims moved: the claim level's splice, and the old
    # positions of the dirty tasks' claims re-encoded ahead of the
    # batch's, with the encoding's order of the two.
    _claim_moves: tuple = field(repr=False, compare=False)

    def carried(self, values: np.ndarray, fill: float) -> np.ndarray:
        """Per-claim ``values`` of the source index, in the extended
        index's claim order, with ``fill`` for the batch's claims.

        Built as the extension built its claim columns: each run of
        clean tasks is one slice copy, and only the dirty tasks' claims
        are gathered, so the Python work is O(batch + dirty claims).
        """
        splice, stale, order = self._claim_moves
        dirty = np.concatenate([values[stale], np.full(len(order) - len(stale), fill)])
        return _spliced(values, dirty[order], splice)


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
    the one fact the ``(task, code, worker)`` order drops:
    :attr:`DatasetIndex.dataset` lists the claims in its order, and no
    kernel reads it.

    The co-answering worker pairs are flattened the same way: one row
    per (pair, shared task), grouped by pair via ``pair_ptr``, with
    ``ps_claim_a``/``ps_claim_b`` pointing back into the claim arrays so
    per-claim state (accuracy, codes, the row's task) is a single gather
    away.  The pair tables and the slot map are int32; the other
    integer arrays are int64.

    The arrays never point at their index: built from one (the only
    constructor argument), they keep its task and worker counts and
    nothing else of it, so a caller may keep them after the index is
    gone, and reference counting frees an index and its arrays without
    the cyclic collector.  A reader that needs more of the index (the
    false-value model, the member tables) takes the index itself.
    """

    index: InitVar[DatasetIndex]

    # -- the index's sizes -----------------------------------------------
    n_tasks: int = field(init=False)
    n_workers: int = field(init=False)

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
    group_size: np.ndarray = field(init=False)
    group_values: np.ndarray = field(init=False)  # object dtype: the str values
    task_group_ptr: np.ndarray = field(init=False)

    # -- worker -> claim CSR ---------------------------------------------
    worker_ptr: np.ndarray = field(init=False)
    worker_claims: np.ndarray = field(init=False)

    # The co-answering pair tables (pair_a, pair_b, pair_ptr,
    # ps_claim_a/b) are lazy cached properties: only the dependence
    # kernels read them, and their O(Σ m_j²) size should not tax
    # algorithms that never look (majority voting, NC).

    def __post_init__(self, index: DatasetIndex) -> None:
        claims = index.dataset.claims
        n = len(claims)
        task = np.fromiter(map(index.task_pos.__getitem__, map(itemgetter(1), claims)), np.int64, n)
        worker = np.fromiter(map(index.worker_pos.__getitem__, map(itemgetter(0), claims)), np.int64, n)
        claim_counts, group_counts, order, code, *groups = _encode_claims(
            index.n_tasks, index.n_workers, task, worker, list(claims.values())
        )
        # The claims arrived in input order: ``order`` is their arrival.
        _assemble_claim_arrays(
            self, index, _offsets(claim_counts), _offsets(group_counts),
            worker[order], code, order, *groups,
        )

    @cached_property
    def _pair_tables(self) -> tuple[np.ndarray, ...]:
        """Pair tables ``(pair_a, pair_b, pair_ptr, ps_claim_a,
        ps_claim_b)``, all int32: every unordered co-answering pair, one
        row per shared task, grouped by pair and ordered by task within
        a pair.  Built on first access — only the dependence kernels
        need them — by the compiled walk that fills
        :attr:`multi_group_slots` too.  :meth:`DatasetIndex.extended`
        never carries them across, so an extension builds its own here
        too.
        """
        tables, self.__dict__["multi_group_slots"], self.__dict__["dependence_launch"] = (
            _walk_pair_tables(self)
        )
        return tables

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
    def ps_claim_a(self) -> np.ndarray:
        """Claim position of ``pair_a``'s claim on the row's task."""
        return self._pair_tables[3]

    @property
    def ps_claim_b(self) -> np.ndarray:
        """Claim position of ``pair_b``'s claim on the row's task."""
        return self._pair_tables[4]

    @property
    def ps_pair(self) -> np.ndarray:
        """Pair index of each (pair, shared task) row, as int64.

        Derived from ``pair_ptr`` on every access and not kept: no
        kernel reads it.
        """
        return np.repeat(np.arange(self.n_pairs, dtype=np.int64), np.diff(self.pair_ptr))

    @property
    def ps_task(self) -> np.ndarray:
        """Task index of each (pair, shared task) row, as int64.

        Derived as ``claim_task[ps_claim_a]`` on every access and not
        kept: the scoring kernel makes the same gather itself.
        """
        return self.claim_task[self.ps_claim_a]

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
        n_tasks = self.n_tasks
        ps_task = self.ps_task
        rows = np.argsort(ps_task, kind="stable")
        return _offsets(np.bincount(ps_task, minlength=n_tasks)), rows

    def drop_pair_tables(self) -> None:
        """Forget the pair tables and what is built on them: the slot
        map, the two kernels' launches (raw addresses into the tables
        and the slot map) and :attr:`pair_rows_by_task`.  A later read
        walks again."""
        for name in (
            "_pair_tables", "multi_group_slots", "multi_group_launch",
            "dependence_launch", "pair_rows_by_task",
        ):
            self.__dict__.pop(name, None)

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

    @property
    def n_rows(self) -> int:
        """Number of (pair, shared task) rows."""
        return len(self.ps_claim_a)

    @cached_property
    def bucket_layout(self) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """The multi-provider groups in bucket order, by size and then
        by index, and each bucket's ``(m, n_groups_of_size_m)`` in
        ascending ``m``: the layout of :attr:`multi_group_buckets` and
        of the slot map's blocks."""
        # Groups have one provider at least: skipping the groups of one
        # in a stable sort by size leaves the multi-provider ones.
        counts = np.bincount(self.group_size, minlength=2)
        order = np.argsort(self.group_size, kind="stable")[counts[1] :]
        ms = np.flatnonzero(counts[2:]) + 2
        return order, list(zip(ms.tolist(), counts[ms].tolist()))

    @cached_property
    def multi_group_buckets(self) -> list[tuple[int, np.ndarray]]:
        """Multi-provider groups bucketed by size: ``(m, claim_indexes)``.

        ``claim_indexes`` is a ``(n_groups_of_size_m, m)`` matrix of
        claim positions, so the greedy independence ordering can run
        batched over every group of one size at once instead of looping
        per group (the sequential part of Eq. 16 then costs one small
        Python loop per *distinct group size*, not per group).  A
        group's claims are consecutive, so the compiled Eq. 16 kernel
        reads only each group's first claim.
        """
        order, shapes = self.bucket_layout
        starts = self.group_ptr[order]
        buckets, begin = [], 0
        for m, n_groups in shapes:
            buckets.append((m, starts[begin : begin + n_groups, None] + np.arange(m)))
            begin += n_groups
        return buckets

    @cached_property
    def multi_group_slots(self) -> list[np.ndarray]:
        """Pair slots of every member pair, aligned with the buckets.

        For the ``(G, m)`` bucket of :attr:`multi_group_buckets`, a
        ``(G, m, m)`` int32 array whose ``[g, k, l]`` entry indexes
        ``concat([p_ab, p_ba, [0.0]])`` at ``P(member k -> member l)``:
        slot ``p`` when ``k < l`` (workers ascend within a group, so
        member ``k`` is ``pair_a`` of pair ``p``), ``n_pairs + p`` when
        ``k > l``, and the trailing ``2 * n_pairs`` on the diagonal.
        The layout depends only on the claims, so Eq. 16 gathers its
        member-pair dependence with one ``take`` per bucket.  The walk
        that builds the pair tables writes it, one entry per same-value
        row and then a per-block transpose, into the tail of the array
        that holds ``pair_ptr`` and the two row tables.
        """
        self._pair_tables
        return self.__dict__["multi_group_slots"]

    @cached_property
    def multi_group_launch(self) -> tuple:
        """The Eq. 16 kernel's view of the buckets, built once.

        ``(n_buckets, largest, n_slots, addresses, held)``: the bucket
        count, the largest group size, the total slot count, and the
        addresses of the four rows of ``held[0]``, one uintp array:
        each bucket's group size, its group count, and the addresses of
        its groups' first claims (into ``held[1]``, one int64 array in
        bucket order) and of its int32 slot block (into
        :attr:`multi_group_slots`, which this index keeps alive).
        """
        order, shapes = self.bucket_layout
        starts = self.group_ptr[order]
        slots = self.multi_group_slots
        # The groups' first claims and the slot blocks are consecutive
        # in one array each.
        starts_at = address(starts)
        slots_at = address(slots[0]) if slots else 0
        rows: list[list[int]] = [[], [], [], []]
        for m, n_groups in shapes:
            for row, value in zip(rows, (m, n_groups, starts_at, slots_at)):
                row.append(value)
            starts_at += 8 * n_groups
            slots_at += 4 * n_groups * m * m
        launch = np.array(rows, dtype=np.uintp)
        at = address(launch)
        return (
            len(shapes),
            max((m for m, _ in shapes), default=0),
            sum(s.size for s in slots),
            tuple(at + 8 * len(shapes) * row for row in range(4)),
            (launch, starts),
        )

    @cached_property
    def dependence_launch(self) -> tuple[int, ...]:
        """The scorer's view of the claims and pair tables, built once.

        The addresses of ``(ps_claim_a, ps_claim_b, pair_ptr,
        claim_task, claim_code)``, which every dependence pass over
        these arrays hands to the kernels.  The walk that builds the
        pair tables sets it, and it goes with them.
        """
        self._pair_tables
        return self.__dict__["dependence_launch"]

    # -- majority vote ---------------------------------------------------

    def majority_codes(self) -> np.ndarray:
        """Per-task majority value code (ties to the smallest code).

        Ties go to the lexicographically smallest value: codes are
        assigned in sorted value order, so "smallest code" is exactly
        that tie-break.
        """
        return segment_first_argmax_code(self.group_size, self.task_group_ptr)


def segment_first_argmax_code(values: np.ndarray, task_group_ptr: np.ndarray) -> np.ndarray:
    """Per task, the code of the first group achieving the segment max.

    ``values`` is one score per value group; groups of a task are
    contiguous and ordered by code, so the first maximal group is the
    lexicographically smallest winning value.  Tasks with no groups,
    and tasks with a NaN score, get ``-1``.  One compiled pass
    (``argmax.c``).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n_tasks = len(task_group_ptr) - 1
    out = np.empty(n_tasks, dtype=np.int64)
    _kernels.first_argmax_codes(n_tasks, address(task_group_ptr), address(values), address(out))
    return out


# ----------------------------------------------------------------------
# Incremental ClaimArrays extension
# ----------------------------------------------------------------------


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``[arange(s, s + l) for s, l in zip(starts, lengths)]``.

    One pass, no Python loop: output ``i`` of range ``k`` is
    ``starts[k] + i - offset[k]``, with ``offset`` the exclusive running
    sum of ``lengths``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    shift = np.asarray(starts, dtype=np.int64) - (lengths.cumsum() - lengths)
    return np.repeat(shift, lengths) + np.arange(int(lengths.sum()), dtype=np.int64)


def _extend_claim_arrays(
    old: ClaimArrays,
    index: DatasetIndex,
    dirty: np.ndarray,
    batch_task: np.ndarray,
    batch_worker: np.ndarray,
    batch_values: list[str],
) -> tuple[ClaimArrays, np.ndarray, tuple]:
    """Splice ``old`` into arrays for the extended ``index``.

    Dirty tasks are re-encoded from their old claims, read back from
    ``old``, plus the batch's claims (the only Python work, proportional
    to the batch and the dirty tasks).  Task positions of pre-existing
    tasks are stable, so the clean tasks between two stale ones move as
    one run: a slice copy per run and column.  The worker CSR is merged,
    not re-sorted: its old entries, remapped, stay in (worker, task)
    order, and each batch claim is inserted after its worker's old
    claims on earlier tasks.  Returns the new arrays and the ``old claim
    position -> new claim position`` map, and how the claims moved
    (:attr:`IndexExtension._claim_moves`).
    """
    n_tasks, n_old, n_batch = index.n_tasks, old.n_claims, len(batch_task)
    stale = dirty[dirty < old.n_tasks]
    osrc = _concat_ranges(old.task_ptr[stale], old.task_ptr[stale + 1] - old.task_ptr[stale])
    seq = np.concatenate([old.claim_seq[osrc], np.arange(n_old, n_old + n_batch)])
    worker = np.concatenate([old.claim_worker[osrc], batch_worker])
    claim_counts, group_counts, order, d_code, d_size, d_values = _encode_claims(
        n_tasks,
        index.n_workers,
        np.concatenate([old.claim_task[osrc], batch_task]),
        worker,
        old.group_values[old.claim_group[osrc]].tolist() + batch_values,
    )
    # Per level: the new pointer, the runs of clean tasks (old start,
    # old end, new start) and the rows of the dirty segments.
    starts = np.concatenate([[0], stale + 1])
    ends = np.concatenate([stale, [old.n_tasks]])
    splices = []
    for counts, old_ptr in ((claim_counts, old.task_ptr), (group_counts, old.task_group_ptr)):
        # The re-encoding counted the dirty tasks; the clean ones keep theirs.
        kept = old_ptr[1:] - old_ptr[:-1]
        kept[stale] = 0
        counts[: len(kept)] += kept
        ptr = _offsets(counts)
        runs = list(zip(old_ptr[starts].tolist(), old_ptr[ends].tolist(), ptr[starts].tolist()))
        splices.append((ptr, runs, _concat_ranges(ptr[dirty], counts[dirty])))
    claims, groups = splices

    # The new position of every old claim, then of every batch claim.
    position = np.arange(n_old + n_batch)
    for lo, hi, at in claims[1]:
        position[lo:hi] += at - lo
    position[np.concatenate([osrc, seq[len(osrc) :]])[order]] = claims[2]
    claim_map, batch_pos = position[:n_old], position[n_old:]

    # Worker CSR: a batch claim goes after its worker's old claims on
    # earlier tasks, so before those on later ones, which only a worker
    # answering a stale task can have: only their segments are searched.
    ptr, old_n_workers = old.worker_ptr, old.n_workers
    on_stale = (batch_task < old.n_tasks) & (batch_worker < old_n_workers)
    searched = np.unique(batch_worker[on_stale])
    held = old.worker_claims[_concat_ranges(ptr[searched], ptr[searched + 1] - ptr[searched])]
    keys = old.claim_worker[held] * n_tasks + old.claim_task[held]
    batch_keys = batch_worker * n_tasks + batch_task
    later = np.searchsorted(keys, (batch_worker + 1) * n_tasks) - np.searchsorted(keys, batch_keys)
    at = ptr[np.minimum(batch_worker + 1, old_n_workers)] - later
    by_key = np.argsort(batch_keys)
    worker_counts = np.bincount(batch_worker, minlength=index.n_workers)
    worker_counts[:old_n_workers] += ptr[1:] - ptr[:-1]

    arrays = _assemble_claim_arrays(
        object.__new__(ClaimArrays),
        index,
        claims[0],
        groups[0],
        _spliced(old.claim_worker, worker[order], claims),
        _spliced(old.claim_code, d_code, claims),
        _spliced(old.claim_seq, seq[order], claims),
        _spliced(old.group_size, d_size, groups),
        _spliced(old.group_values, d_values, groups),
        np.insert(claim_map[old.worker_claims], at[by_key], batch_pos[by_key]),
        _offsets(worker_counts),
    )
    return arrays, claim_map, (claims, osrc, order)


def _spliced(column: np.ndarray, values: np.ndarray, splice) -> np.ndarray:
    """``column`` moved by ``splice``, ``(ptr, runs, rows)``: each clean
    run ``(lo, hi, at)`` as one slice copy, then ``values`` at the
    dirty segments' ``rows``."""
    ptr, runs, rows = splice
    out = np.empty(int(ptr[-1]), dtype=column.dtype)
    for lo, hi, at in runs:
        out[at : at + hi - lo] = column[lo:hi]
    out[rows] = values
    return out


def _appended(
    tables: tuple[list[str], dict[str, int]] | None, new_ids: list[str]
) -> tuple[list[str], dict[str, int]]:
    """An id list and its position map (``tables``; None for empty)
    with ``new_ids`` appended: the same objects if there are none."""
    ids, pos = tables or ([], {})
    if not new_ids:
        return ids, pos
    return ids + new_ids, pos | dict(zip(new_ids, range(len(ids), len(ids) + len(new_ids))))


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR pointer over ``counts``: ``[0, c_0, c_0 + c_1, ...]``."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    counts.cumsum(out=ptr[1:])
    return ptr


def _encode_claims(
    n_tasks: int,
    n_workers: int,
    task: np.ndarray,
    worker: np.ndarray,
    values: list[str],
) -> tuple[np.ndarray, ...]:
    """Integer-code claims given as parallel per-claim columns.

    Each task's distinct values are numbered in sorted order and the
    claims sorted by (task, code, worker).  Returns the claim and group
    counts of every one of ``n_tasks`` tasks (0 for tasks without
    claims here), the sorted claims' input rows and codes, and the
    groups' sizes and values (an object array).
    """
    # Rank the distinct values in sorted order; one unique over
    # ``task * n_values + rank`` then yields the groups in (task, code)
    # order.
    names = sorted(set(values))
    rank_of = dict(zip(names, range(len(names))))
    rank = np.fromiter(map(rank_of.__getitem__, values), np.int64, len(values))
    n_values = max(len(names), 1)
    keys, claim_group = np.unique(task * n_values + rank, return_inverse=True)
    group_task, group_rank = np.divmod(keys, n_values)
    group_counts = np.bincount(group_task, minlength=n_tasks)
    group_code = np.arange(len(keys), dtype=np.int64) - _offsets(group_counts)[group_task]
    # (group, worker) is unique per claim, so its int64 key sorts the
    # claims as a two-key lexsort would.
    order = np.argsort(claim_group * n_workers + worker)
    return (
        np.bincount(task, minlength=n_tasks),
        group_counts,
        order,
        group_code[claim_group[order]],
        np.bincount(claim_group, minlength=len(keys)),
        np.array(names, dtype=object)[group_rank],
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
    group_values: np.ndarray,
    worker_claims: np.ndarray | None = None,
    worker_ptr: np.ndarray | None = None,
) -> ClaimArrays:
    """Set ``arrays``' fields from its per-task claim and group segments.

    In (task, code, worker) order, group index = task group start +
    code (codes are consecutive 0..K_j-1), so the remaining structures
    are pure arithmetic on the segments.  The worker CSR is sorted and
    counted here unless given (:meth:`DatasetIndex.extended` merges its
    own).  The cold build and :meth:`DatasetIndex.extended` both finish
    here.
    """
    n_tasks, n_workers = index.n_tasks, index.n_workers
    claim_task = np.repeat(np.arange(n_tasks, dtype=np.int64), np.diff(task_ptr))
    group_task = np.repeat(np.arange(n_tasks, dtype=np.int64), np.diff(task_group_ptr))
    claim_group = task_group_ptr[claim_task]
    claim_group += claim_code
    if worker_claims is None:
        # Claim indexes sorted by (worker, task), a unique int64 key.
        worker_claims = np.argsort(claim_worker * n_tasks + claim_task)
        worker_ptr = _offsets(np.bincount(claim_worker, minlength=n_workers))
    fields = {
        "n_tasks": n_tasks,
        "n_workers": n_workers,
        "claim_task": claim_task,
        "claim_worker": claim_worker,
        "claim_code": claim_code,
        "claim_group": claim_group,
        "claim_seq": claim_seq,
        "task_ptr": task_ptr,
        "group_ptr": _offsets(group_size),
        "group_task": group_task,
        "group_size": group_size,
        "group_values": group_values,
        "task_group_ptr": task_group_ptr,
        "worker_ptr": worker_ptr,
        "worker_claims": worker_claims,
    }
    for name, value in fields.items():
        object.__setattr__(arrays, name, value)
    return arrays


_INT32_MAX = int(np.iinfo(np.int32).max)


def _check_int32_tables(n_workers: int, n_claims: int, n_rows: int, n_pairs: int) -> None:
    """Refuse an index whose int32 pair tables would wrap.

    The tables hold worker positions (``pair_a``/``pair_b``), claim
    positions (``ps_claim_a``/``ps_claim_b``), row offsets up to
    ``n_rows`` (``pair_ptr``) and slots up to ``2 * n_pairs`` (the slot
    map); each must fit in int32.
    """
    for what, count, largest in (
        ("workers", n_workers, n_workers),
        ("claims", n_claims, n_claims),
        ("pair rows", n_rows, n_rows),
        ("pairs", n_pairs, 2 * n_pairs),
    ):
        if largest > _INT32_MAX:
            raise DataFormatError(f"{count} {what} overflow the int32 pair tables")


def _walk_pair_tables(
    arrays: ClaimArrays,
) -> tuple[tuple[np.ndarray, ...], list[np.ndarray], tuple[int, ...]]:
    """The five int32 pair tables and the slot map, by ``pairtables.c``.

    ``task_buckets`` lays each task's claims out in worker order, and
    the rows of each second worker ``b`` give the walk's size.  A walk
    of at least ``_PART_MIN_ROWS`` rows is cut into one part per CPU,
    over ranges of ``b`` with about equal rows; a smaller one is one
    part (DESIGN.md §7, "Both cores").  Every part runs twice with its
    own counters: first it counts each worker's rows and pairs as the
    smaller worker, then ``walk_cursors`` turns the counts into fill
    cursors and, once the totals are known to fit in int32
    (:func:`_check_int32_tables`), it fills its rows and pairs.

    Scratch and outputs are a few arrays carved into sections, so a
    small walk costs a few kernel calls and address lookups whatever
    its number of columns.  Returns the tables, the slot map's bucket
    blocks and the dependence pass's launch
    (:attr:`ClaimArrays.dependence_launch`).
    """
    n_workers, n_tasks, n_claims = arrays.n_workers, arrays.n_tasks, arrays.n_claims
    # The part machinery is read off engine at call time, as patched.
    n_parts_max = engine._PARTS
    # One int64 scratch: each task's fill cursor, the task buckets, each
    # claim's place in them, the rows before each second worker, the
    # two totals, the offset of each multi-provider group's m x m block
    # in the flat slot map (blocks in bucket order), and each possible
    # part's last, row and pair counters, which become its fill cursors.
    sections = (
        n_tasks, n_claims, n_claims, n_workers + 1, 2, arrays.n_groups,
        3 * n_parts_max * n_workers,
    )
    offsets = list(accumulate(sections, initial=0))
    scratch = np.empty(offsets[-1], dtype=np.int64)
    row_ptr = scratch[offsets[3] : offsets[4]]
    totals = scratch[offsets[4] : offsets[5]]
    block = scratch[offsets[5] : offsets[6]]
    scratch[offsets[6] :] = 0
    scratch_at = address(scratch)
    at = [scratch_at + 8 * offset for offset in offsets]
    order, shapes = arrays.bucket_layout
    sizes = arrays.group_size[order]
    area = sizes**2
    block[order] = np.cumsum(area) - area
    inputs = [
        address(column)
        for column in (
            arrays.task_ptr, arrays.worker_ptr, arrays.worker_claims, arrays.claim_task,
            arrays.claim_worker, arrays.claim_group, arrays.group_ptr, arrays.group_size,
        )
    ]
    _kernels.task_buckets(n_workers, n_tasks, *inputs[:4], *at[:4])
    n_parts = n_parts_max if row_ptr[-1] >= engine._PART_MIN_ROWS else 1
    cuts = engine._pair_cuts(row_ptr, 0, n_workers, n_parts)
    # Pool threads get plain addresses: they call only the kernel.
    counters_at = at[6]
    shared = [*inputs, at[5], at[1], at[2]]  # ..., block, by_task, pos

    def walk(n_pairs: int, outputs) -> None:
        def part(k: int) -> None:
            own = (counters_at + 8 * n_workers * (3 * k + i) for i in range(3))
            _kernels.pair_tables(cuts[k], cuts[k + 1], *shared, n_pairs, *own, *outputs)

        engine._run_parts(part, n_parts)

    walk(-1, (None,) * 6)
    _kernels.walk_cursors(n_parts, n_workers, counters_at, at[4])
    n_rows, n_pairs = totals.tolist()
    _check_int32_tables(n_workers, n_claims, n_rows, n_pairs)
    # Two int32 arrays: the pairs' workers, which a result may keep, and
    # pair_ptr, the two row tables and the slot map, which a run that
    # built its own index drops before its result.
    workers = np.empty(2 * n_pairs, dtype=np.int32)
    rows = np.empty(n_pairs + 1 + 2 * n_rows + int(area.sum()), dtype=np.int32)
    ends = list(accumulate((n_pairs + 1, n_rows, n_rows), initial=0))
    pair_ptr, ps_claim_a, ps_claim_b, flat = (
        rows[lo:hi] for lo, hi in zip(ends, [*ends[1:], len(rows)])
    )
    pair_ptr[n_pairs] = n_rows
    workers_at, rows_at = address(workers), address(rows)
    table_at = [rows_at + 4 * end for end in ends]
    walk(n_pairs, [workers_at, workers_at + 4 * n_pairs, *table_at])
    _kernels.slot_transpose(len(sizes), address(sizes), n_pairs, table_at[3])
    slots, begin = [], 0
    for m, n_groups in shapes:
        slots.append(flat[begin : begin + n_groups * m * m].reshape(n_groups, m, m))
        begin += n_groups * m * m
    tables = (workers[:n_pairs], workers[n_pairs:], pair_ptr, ps_claim_a, ps_claim_b)
    launch = (table_at[1], table_at[2], table_at[0], inputs[3], address(arrays.claim_code))
    return tables, slots, launch


# engine imports this module for its names above, and the walk reads
# engine's part machinery when it runs: imported last, either module
# may be imported first.
from . import engine  # noqa: E402
