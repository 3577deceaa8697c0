"""Vectorized DATE kernels over :class:`~repro.core.indexing.ClaimArrays`.

This module executes the four steps of Alg. 1 (documented in
:mod:`~repro.core.dependence`, :mod:`~repro.core.accuracy` and
:mod:`~repro.core.support`) as flat passes over the integer-coded
claim arrays: numpy, plus the compiled kernels of
:mod:`~repro.core.native` for the pair-row arithmetic of step 1 and
the greedy of step 2.  State lives in three flat arrays between
iterations:

- ``claim_acc`` — one accuracy per claim (the non-zero entries of the
  dense ``A`` matrix, in claim order);
- ``indep`` — one independence probability ``I_v^j(i)`` per claim;
- ``truth_codes`` — one value code per task (-1 for unanswered tasks).

The dense matrix and the string-keyed tables of the public API are
materialized once at the end of a run (:func:`dense_accuracy`,
:func:`posterior_table`, :func:`support_table`,
:func:`dependence_table`).  DESIGN.md §7 documents the encoding;
tests/property/test_property_backends.py pins every kernel against the
scalar transcriptions kept in tests/oracles/.
"""

from __future__ import annotations

import math
import threading
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass

import numpy as np

from .dependence import DependencePosterior
from .indexing import (
    ClaimArrays,
    _concat_ranges,
    pair_row_keys,
    segment_first_argmax_code,
)
from .native import load_kernels

__all__ = [
    "DependenceArrays",
    "DependenceView",
    "IncrementalDependence",
    "KernelScratch",
    "pairwise_dependence_arrays",
    "independence_flat",
    "plain_posterior_groups",
    "discounted_posterior_groups",
    "accuracy_flat",
    "support_flat",
    "select_truth_codes",
    "dense_accuracy",
    "posterior_table",
    "support_table",
    "dependence_table",
]

# Likelihood terms are clamped away from 0 so a single impossible-looking
# observation cannot produce -inf log likelihoods (dependence.c floors
# the pair-row terms at the same value).
_MIN_PROB = 1e-12

# The compiled kernels (dependence.c, independence.c); built into the
# per-user cache on first import (an ImportError names a missing C
# compiler).
_kernels = load_kernels()


def _safe_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, _MIN_PROB))


def _note_scratch_growth(nbytes: int) -> None:
    """Record one scratch slab (re)allocation when telemetry is on.

    Growth is rare by design (slabs persist across iterations), so this
    sits outside the hot path; the lazy import keeps the kernel module
    import-light.
    """
    from ..obs.metrics import get_registry

    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "date_scratch_growth_total",
            "KernelScratch slab allocations (growth or dtype change).",
        ).inc()
        registry.counter(
            "date_scratch_bytes_total",
            "Total bytes allocated into KernelScratch slabs.",
        ).inc(nbytes)


class KernelScratch:
    """Named, growable scratch slabs for the hot kernels' temporaries.

    The fixed-point loop's dependence, pair-posterior and group-posterior
    kernels draw their temporaries from named slabs that persist across
    iterations, so allocating them is a one-time cost.  :meth:`array`
    hands out a view of the slab for ``name`` (grown when needed), so a
    caller must be done with the previous view of a name before
    requesting it again.  One scratch is not thread-safe — concurrent
    campaigns each use their thread's own instance
    (:func:`_thread_scratch`).
    """

    def __init__(self) -> None:
        self._slabs: dict[str, np.ndarray] = {}

    def array(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """A writable, uninitialized ``shape`` view of the ``name`` slab."""
        if isinstance(shape, int):
            shape = (shape,)
        size = 1
        for extent in shape:
            size *= int(extent)
        slab = self._slabs.get(name)
        if slab is None or slab.dtype != np.dtype(dtype) or slab.size < size:
            slab = np.empty(max(size, 1), dtype=dtype)
            self._slabs[name] = slab
            _note_scratch_growth(slab.nbytes)
        return slab[:size].reshape(shape)


_TLS = threading.local()


def _thread_scratch() -> KernelScratch:
    """The calling thread's own :class:`KernelScratch` (created once)."""
    scratch = getattr(_TLS, "scratch", None)
    if scratch is None:
        scratch = KernelScratch()
        _TLS.scratch = scratch
    return scratch


@dataclass(frozen=True)
class DependenceArrays:
    """Directional dependence posteriors for every co-answering pair.

    ``p_ab[k]`` is ``P(pair_a[k] -> pair_b[k] | D)`` (the first worker
    of pair ``k`` copies from the second), ``p_ba`` the reverse — the
    array form of :class:`~repro.core.dependence.DependencePosterior`
    over ``ClaimArrays.pair_a/pair_b``.
    """

    p_ab: np.ndarray
    p_ba: np.ndarray

    def slot_values(self) -> np.ndarray:
        """``concat([p_ab, p_ba, [0.0]])`` — what pair slots index."""
        return np.concatenate([self.p_ab, self.p_ba, [0.0]])


class DependenceView(Mapping):
    """Read-only ``(a, b) -> DependencePosterior`` view over pair arrays.

    Holds the kernels' ``pair_a``/``pair_b``/``p_ab``/``p_ba`` arrays
    and a key-id sequence ``ids``: pair ``k`` is keyed
    ``(ids[pair_a[k]], ids[pair_b[k]])`` — worker positions for
    ``ids=range(n_workers)``, worker ids for ``ids=index.worker_ids``,
    so re-keying (:meth:`rekeyed`) swaps one sequence instead of
    walking every pair.  Iteration follows pair order and posteriors
    are built on demand; the ``key -> position`` dict is only built on
    the first lookup.  Equality with any mapping (a plain dict included)
    compares items, exactly as between dicts.
    """

    __slots__ = ("pair_a", "pair_b", "p_ab", "p_ba", "ids", "_positions")

    def __init__(self, pair_a, pair_b, p_ab, p_ba, ids) -> None:
        self.pair_a = _read_only(pair_a, np.int64)
        self.pair_b = _read_only(pair_b, np.int64)
        self.p_ab = _read_only(p_ab, np.float64)
        self.p_ba = _read_only(p_ba, np.float64)
        self.ids = ids
        self._positions: dict | None = None

    def rekeyed(self, ids) -> "DependenceView":
        """The same pairs keyed through another id sequence."""
        return DependenceView(self.pair_a, self.pair_b, self.p_ab, self.p_ba, ids)

    def __len__(self) -> int:
        return len(self.pair_a)

    def __iter__(self):
        ids = self.ids
        for a, b in zip(self.pair_a.tolist(), self.pair_b.tolist()):
            yield (ids[a], ids[b])

    def __getitem__(self, key) -> DependencePosterior:
        if self._positions is None:
            self._positions = {pair: k for k, pair in enumerate(self)}
        k = self._positions[key]
        return DependencePosterior(
            p_a_to_b=float(self.p_ab[k]), p_b_to_a=float(self.p_ba[k])
        )

    def items(self):
        return _DependenceItems(self)

    def __reduce__(self):
        return (
            DependenceView,
            (self.pair_a, self.pair_b, self.p_ab, self.p_ba, self.ids),
        )


class _DependenceItems(ItemsView):
    """Items straight off the arrays, without the position dict."""

    def __iter__(self):
        view = self._mapping
        for key, ab, ba in zip(view, view.p_ab.tolist(), view.p_ba.tolist()):
            yield key, DependencePosterior(p_a_to_b=ab, p_b_to_a=ba)


def _read_only(values, dtype) -> np.ndarray:
    """A non-writeable view of ``values`` (the source stays writeable)."""
    view = np.asarray(values, dtype=dtype).view()
    view.flags.writeable = False
    return view


def _score_pair_rows(
    arrays: ClaimArrays,
    truth_codes: np.ndarray,
    claim_acc: np.ndarray,
    *,
    r: float,
    collision: np.ndarray,
    lo: float,
    hi: float,
    rows: np.ndarray | None,
    out_ind: np.ndarray,
    out_ab: np.ndarray,
    out_ba: np.ndarray,
) -> None:
    """Per-row hypothesis log-likelihood terms for ``rows`` (Eqs. 7-13).

    ``rows`` is ``None`` for every pair-table row or an int index array;
    ``out_*`` are contiguous float64 arrays with one entry per scored
    row.  The compiled ``score_pair_rows`` writes each row's three
    likelihoods before the log, reading the pair tables, claim codes
    and accuracies directly; numpy's ``log`` then runs in place on the
    three outputs.  Every output element depends only on that row's own
    inputs, so scoring any subset — the scattered rows of a few touched
    tasks — reproduces bit for bit what a full pass writes at those
    positions.  That elementwise property is what
    :class:`IncrementalDependence` leans on.
    """
    n_rows = len(arrays.ps_pair)
    if rows is not None:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if len(rows) and not (0 <= rows.min() and rows.max() < n_rows):
            raise IndexError(f"pair-table rows out of range [0, {n_rows})")
    n = n_rows if rows is None else len(rows)
    n_tasks = arrays.index.n_tasks
    if len(truth_codes) != n_tasks or len(collision) != n_tasks:
        raise ValueError(
            f"{len(truth_codes)} truth codes / {len(collision)} collision "
            f"probabilities for {n_tasks} tasks"
        )
    if len(claim_acc) != arrays.n_claims:
        raise ValueError(f"{len(claim_acc)} accuracies for {arrays.n_claims} claims")
    _check_buffers((out_ind, out_ab, out_ba), n)
    inputs = (
        np.ascontiguousarray(arrays.ps_claim_a, dtype=np.int64),
        np.ascontiguousarray(arrays.ps_claim_b, dtype=np.int64),
        np.ascontiguousarray(arrays.ps_task, dtype=np.int64),
        np.ascontiguousarray(arrays.claim_code, dtype=np.int64),
        np.ascontiguousarray(claim_acc, dtype=np.float64),
        np.ascontiguousarray(truth_codes, dtype=np.int64),
        np.ascontiguousarray(collision, dtype=np.float64),
    )
    _kernels.score_pair_rows(
        n,
        None if rows is None else rows.ctypes.data,
        *(a.ctypes.data for a in inputs),
        lo,
        hi,
        r,
        *(a.ctypes.data for a in (out_ind, out_ab, out_ba)),
    )
    for out in (out_ind, out_ab, out_ba):
        np.log(out, out=out)


def _pair_sums(
    arrays: ClaimArrays,
    terms: tuple[np.ndarray, np.ndarray, np.ndarray],
    sums: tuple[np.ndarray, np.ndarray, np.ndarray],
    pairs: np.ndarray | None = None,
) -> None:
    """Sum each pair's row terms into ``sums`` at the pair's index.

    ``terms`` are the three full-length row-term arrays, ``sums`` three
    per-pair arrays; ``pairs`` lists the pairs to sum (``None``: all).
    Each sum adds the pair's contiguous row segment sequentially from
    +0.0 in row order — exactly ``np.bincount(ps_pair, weights=...)``'s
    order, so summing a subset of pairs writes the bits a full pass
    writes there (``np.add.reduceat`` would not: its pairwise summation
    reassociates).
    """
    n_pairs = arrays.n_pairs
    if pairs is not None:
        pairs = np.ascontiguousarray(pairs, dtype=np.int64)
        if len(pairs) and not (0 <= pairs.min() and pairs.max() < n_pairs):
            raise IndexError(f"pairs out of range [0, {n_pairs})")
    _check_buffers(terms, len(arrays.ps_pair))
    _check_buffers(sums, n_pairs)
    pair_ptr = np.ascontiguousarray(arrays.pair_ptr, dtype=np.int64)
    _kernels.pair_sums(
        n_pairs if pairs is None else len(pairs),
        None if pairs is None else pairs.ctypes.data,
        pair_ptr.ctypes.data,
        *(a.ctypes.data for a in terms),
        *(a.ctypes.data for a in sums),
    )


def _check_buffers(arrays, size: int) -> None:
    """Refuse buffers a kernel cannot address as ``size`` float64s."""
    for values in arrays:
        if values.dtype != np.float64 or not values.flags.c_contiguous or len(values) != size:
            raise ValueError(f"kernel buffers must be {size} contiguous float64 entries")


def _dependence_posteriors(
    sum_ind: np.ndarray,
    sum_ab: np.ndarray,
    sum_ba: np.ndarray,
    prior_alpha: float,
    scratch: KernelScratch,
) -> tuple[np.ndarray, np.ndarray]:
    """Bayes' rule with the α/2 prior split, normalized in log space.

    Elementwise over pairs — normalizing a subset of pairs produces the
    same bits as normalizing all of them and selecting the subset.  The
    two returned arrays are fresh; the sums are not modified.
    """
    n = len(sum_ind)
    w_ind = np.add(sum_ind, math.log(1.0 - prior_alpha), out=scratch.array("post_ind", n))
    log_prior_dep = math.log(prior_alpha / 2.0)
    w_ab = np.add(sum_ab, log_prior_dep)
    w_ba = np.add(sum_ba, log_prior_dep)
    peak = np.maximum(w_ab, w_ba, out=scratch.array("post_peak", n))
    np.maximum(w_ind, peak, out=peak)
    for w in (w_ind, w_ab, w_ba):
        np.subtract(w, peak, out=w)
        np.exp(w, out=w)
    total = np.add(w_ind, w_ab, out=peak)
    np.add(total, w_ba, out=total)
    np.divide(w_ab, total, out=w_ab)
    np.divide(w_ba, total, out=w_ba)
    return w_ab, w_ba


def pairwise_dependence_arrays(
    arrays: ClaimArrays,
    truth_codes: np.ndarray,
    claim_acc: np.ndarray,
    *,
    copy_prob_r: float,
    prior_alpha: float,
    collision: np.ndarray,
    accuracy_clamp: tuple[float, float] = (0.01, 0.99),
    scratch: KernelScratch | None = None,
) -> DependenceArrays:
    """Step 1 (Eqs. 7-15) as one pass over the (pair, shared task) rows.

    Each flattened row contributes its log-likelihood terms to the three
    hypotheses of its pair (segment sums by pair), then Bayes' rule with
    the α/2 prior split normalizes in log space.  ``collision`` is the
    per-task false-value collision probability (Eq. 22's integral),
    typically :meth:`FalseValueDistribution.collision_array`.
    ``scratch`` reuses the temporaries across calls (defaults to the
    calling thread's shared scratch).
    """
    if not 0.0 < copy_prob_r < 1.0:
        raise ValueError(f"copy_prob_r must be in (0, 1), got {copy_prob_r}")
    if not 0.0 < prior_alpha < 1.0:
        raise ValueError(f"prior_alpha must be in (0, 1), got {prior_alpha}")
    lo, hi = accuracy_clamp
    scratch = scratch if scratch is not None else _thread_scratch()
    n_rows = len(arrays.ps_pair)
    n_pairs = arrays.n_pairs
    terms = tuple(scratch.array(f"dep_{name}", n_rows) for name in ("ind", "ab", "ba"))
    _score_pair_rows(
        arrays,
        truth_codes,
        claim_acc,
        r=copy_prob_r,
        collision=collision,
        lo=lo,
        hi=hi,
        rows=None,
        out_ind=terms[0],
        out_ab=terms[1],
        out_ba=terms[2],
    )
    sums = tuple(scratch.array(f"dep_sum_{name}", n_pairs) for name in ("ind", "ab", "ba"))
    _pair_sums(arrays, terms, sums)
    p_ab, p_ba = _dependence_posteriors(*sums, prior_alpha, scratch)
    return DependenceArrays(p_ab=p_ab, p_ba=p_ba)


class IncrementalDependence:
    """Updatable per-pair dependence aggregates (ROADMAP item 4).

    Maintains, between refreshes, every (pair, shared task) row's
    hypothesis log-likelihood contributions together with their
    per-pair sums and normalized posteriors.  A refresh that touches
    ``k`` tasks re-scores only those tasks' rows and re-sums only the
    pairs owning one, O(k · pairs-touched) instead of O(all pair rows).

    **Exactness.**  The refreshed state is *bit-identical* to a full
    :func:`pairwise_dependence_arrays` pass over the same inputs:

    - row scoring is elementwise (:func:`_score_pair_rows`), so
      re-scoring a subset reproduces the full pass's bits at those
      rows, and rows whose inputs (truth code, the two claim
      accuracies, the task's collision probability) did not change
      keep their cached contributions unchanged;
    - per-pair sums use the full pass's own kernel (:func:`_pair_sums`),
      re-summing each *affected* pair over its full contiguous row
      segment — same addends, same order, same bits;
    - posterior normalization is elementwise over pairs
      (:func:`_dependence_posteriors`), so renormalizing only the
      affected pairs leaves the rest bit-frozen.

    tests/property/test_property_incremental_dependence.py pins this
    against randomized edit and ingest sequences; DESIGN.md §12 has the
    full argument, including why the streaming dirty-task path keeps
    untouched rows' inputs frozen.
    """

    def __init__(
        self,
        arrays: ClaimArrays,
        *,
        copy_prob_r: float,
        prior_alpha: float,
        collision: np.ndarray,
        accuracy_clamp: tuple[float, float] = (0.01, 0.99),
    ):
        if not 0.0 < copy_prob_r < 1.0:
            raise ValueError(f"copy_prob_r must be in (0, 1), got {copy_prob_r}")
        if not 0.0 < prior_alpha < 1.0:
            raise ValueError(f"prior_alpha must be in (0, 1), got {prior_alpha}")
        self._r = copy_prob_r
        self._alpha = prior_alpha
        self._lo, self._hi = accuracy_clamp
        self._scratch = KernelScratch()
        self._truth_codes: np.ndarray | None = None
        self._claim_acc: np.ndarray | None = None
        self._bind(arrays, collision)

    def _bind(self, arrays: ClaimArrays, collision: np.ndarray) -> None:
        self._arrays = arrays
        self._collision = np.array(collision, dtype=np.float64, copy=True)
        n_rows = len(arrays.ps_pair)
        n_pairs = arrays.n_pairs
        self._row_ind = np.empty(n_rows)
        self._row_ab = np.empty(n_rows)
        self._row_ba = np.empty(n_rows)
        self._sum_ind = np.empty(n_pairs)
        self._sum_ab = np.empty(n_pairs)
        self._sum_ba = np.empty(n_pairs)
        self._p_ab = np.empty(n_pairs)
        self._p_ba = np.empty(n_pairs)

    @property
    def arrays(self) -> ClaimArrays:
        """The claim arrays the aggregates are currently bound to."""
        return self._arrays

    def posteriors(self) -> DependenceArrays:
        """The current posteriors (copies — refreshes mutate in place)."""
        return DependenceArrays(p_ab=self._p_ab.copy(), p_ba=self._p_ba.copy())

    def refresh(
        self,
        truth_codes: np.ndarray,
        claim_acc: np.ndarray,
        touched_tasks: np.ndarray | None = None,
    ) -> DependenceArrays:
        """Bring the aggregates up to date with the given inputs.

        ``touched_tasks`` lists the task positions whose truth code or
        claim accuracies may differ from the previous refresh; ``None``
        diffs against the stored inputs (one vector compare — this is
        what lets a converging fixed point skip whole iterations of
        re-scoring).  The first refresh is always a full pass.
        """
        truth_codes = np.asarray(truth_codes, dtype=np.int64)
        claim_acc = np.asarray(claim_acc, dtype=np.float64)
        if self._truth_codes is None:
            self._refresh_full(truth_codes, claim_acc)
        else:
            if touched_tasks is None:
                touched_tasks = self._diff_tasks(truth_codes, claim_acc)
            self._refresh_tasks(
                np.asarray(touched_tasks, dtype=np.int64), truth_codes, claim_acc
            )
        self._truth_codes = truth_codes.copy()
        self._claim_acc = claim_acc.copy()
        return self.posteriors()

    def rebind(
        self,
        arrays: ClaimArrays,
        *,
        collision: np.ndarray,
        dirty_tasks,
        truth_codes: np.ndarray,
        claim_acc: np.ndarray,
    ) -> DependenceArrays:
        """Carry the aggregates across an index extension and refresh.

        ``arrays`` must extend the bound arrays in the sense of
        :meth:`~repro.core.indexing.DatasetIndex.extended`: task
        positions stable, every old (pair, shared task) row surviving.
        Inputs may differ from the stored state only on ``dirty_tasks``
        (tasks whose collision probability changed under the new index
        are detected and re-scored here as well) — exactly the contract
        the streaming ingest path satisfies, because its merge step
        writes truths and claim accuracies for dirty tasks only.

        Surviving rows and pairs carry their cached contributions over
        through a sorted-key scatter; new rows (all on dirty tasks —
        a clean shared task would mean the pair row already existed)
        are scored by the dirty refresh.
        """
        old = self._arrays
        truth_codes = np.asarray(truth_codes, dtype=np.int64)
        claim_acc = np.asarray(claim_acc, dtype=np.float64)
        collision = np.asarray(collision, dtype=np.float64)
        if self._truth_codes is None:
            self._bind(arrays, collision)
            return self.refresh(truth_codes, claim_acc)

        n_workers = arrays.index.n_workers
        n_tasks = arrays.index.n_tasks
        # Row identity is (pair worker ids, shared task).  Both tables
        # sort rows by (pair_a, pair_b, task), which is ascending key
        # order for any worker and task counts at least as large as the
        # ids, so old keys form an ascending subsequence of the new ones.
        old_keys = pair_row_keys(
            old.pair_a[old.ps_pair], old.pair_b[old.ps_pair], old.ps_task, n_workers, n_tasks
        )
        new_keys = pair_row_keys(
            arrays.pair_a[arrays.ps_pair],
            arrays.pair_b[arrays.ps_pair],
            arrays.ps_task,
            n_workers,
            n_tasks,
        )
        row_pos = np.searchsorted(new_keys, old_keys)
        old_pair_keys = old.pair_a * n_workers + old.pair_b
        new_pair_keys = arrays.pair_a * n_workers + arrays.pair_b
        pair_pos = np.searchsorted(new_pair_keys, old_pair_keys)
        if (
            len(old_keys) > 0
            and not (
                np.array_equal(new_keys[np.minimum(row_pos, len(new_keys) - 1)], old_keys)
                and np.array_equal(
                    new_pair_keys[np.minimum(pair_pos, len(new_pair_keys) - 1)],
                    old_pair_keys,
                )
            )
        ):
            raise ValueError(
                "rebind target does not extend the bound claim arrays: "
                "an existing (pair, shared task) row is missing"
            )

        def carry(values: np.ndarray, size: int, positions: np.ndarray) -> np.ndarray:
            fresh = np.empty(size)
            fresh[positions] = values
            return fresh

        n_rows = len(new_keys)
        self._row_ind = carry(self._row_ind, n_rows, row_pos)
        self._row_ab = carry(self._row_ab, n_rows, row_pos)
        self._row_ba = carry(self._row_ba, n_rows, row_pos)
        n_pairs = arrays.n_pairs
        self._sum_ind = carry(self._sum_ind, n_pairs, pair_pos)
        self._sum_ab = carry(self._sum_ab, n_pairs, pair_pos)
        self._sum_ba = carry(self._sum_ba, n_pairs, pair_pos)
        self._p_ab = carry(self._p_ab, n_pairs, pair_pos)
        self._p_ba = carry(self._p_ba, n_pairs, pair_pos)

        touched = np.zeros(n_tasks, dtype=bool)
        touched[np.asarray(dirty_tasks, dtype=np.int64)] = True
        old_n_tasks = old.index.n_tasks
        # A non-dirty task's collision probability can still move under
        # data-driven false-value models (the empirical ones re-fit on
        # the grown campaign) — its rows must be re-scored too.
        touched[:old_n_tasks] |= collision[:old_n_tasks] != self._collision
        self._arrays = arrays
        self._collision = collision.copy()
        self._refresh_tasks(np.flatnonzero(touched), truth_codes, claim_acc)
        self._truth_codes = truth_codes.copy()
        self._claim_acc = claim_acc.copy()
        return self.posteriors()

    # -- internals -------------------------------------------------------

    def _diff_tasks(
        self, truth_codes: np.ndarray, claim_acc: np.ndarray
    ) -> np.ndarray:
        """Task positions whose inputs changed since the last refresh."""
        arrays = self._arrays
        changed = self._truth_codes != truth_codes
        changed[arrays.claim_task[self._claim_acc != claim_acc]] = True
        return np.flatnonzero(changed)

    def _refresh_full(self, truth_codes: np.ndarray, claim_acc: np.ndarray) -> None:
        arrays = self._arrays
        terms = (self._row_ind, self._row_ab, self._row_ba)
        sums = (self._sum_ind, self._sum_ab, self._sum_ba)
        _score_pair_rows(
            arrays,
            truth_codes,
            claim_acc,
            r=self._r,
            collision=self._collision,
            lo=self._lo,
            hi=self._hi,
            rows=None,
            out_ind=terms[0],
            out_ab=terms[1],
            out_ba=terms[2],
        )
        _pair_sums(arrays, terms, sums)
        self._p_ab, self._p_ba = _dependence_posteriors(*sums, self._alpha, self._scratch)

    def _refresh_tasks(
        self,
        touched: np.ndarray,
        truth_codes: np.ndarray,
        claim_acc: np.ndarray,
    ) -> None:
        if len(touched) == 0:
            return
        arrays = self._arrays
        scratch = self._scratch
        task_row_ptr, rows_by_task = arrays.pair_rows_by_task
        rows = rows_by_task[
            _concat_ranges(
                task_row_ptr[touched], task_row_ptr[touched + 1] - task_row_ptr[touched]
            )
        ]
        if len(rows) == 0:
            return
        n = len(rows)
        out_ind = scratch.array("inc_ind", n)
        out_ab = scratch.array("inc_ab", n)
        out_ba = scratch.array("inc_ba", n)
        _score_pair_rows(
            arrays,
            truth_codes,
            claim_acc,
            r=self._r,
            collision=self._collision,
            lo=self._lo,
            hi=self._hi,
            rows=rows,
            out_ind=out_ind,
            out_ab=out_ab,
            out_ba=out_ba,
        )
        self._row_ind[rows] = out_ind
        self._row_ab[rows] = out_ab
        self._row_ba[rows] = out_ba

        # Affected pairs = pairs owning a re-scored row (a boolean
        # scatter — orders of magnitude cheaper than np.unique here).
        mask = scratch.array("inc_pair_mask", arrays.n_pairs, bool)
        mask[:] = False
        mask[arrays.ps_pair[rows]] = True
        affected = np.flatnonzero(mask)
        # Re-sum each affected pair over its full contiguous row
        # segment with the full pass's own kernel — same addends in the
        # same sequential order, hence the same bits.
        sums = (self._sum_ind, self._sum_ab, self._sum_ba)
        _pair_sums(arrays, (self._row_ind, self._row_ab, self._row_ba), sums, affected)
        p_ab, p_ba = _dependence_posteriors(
            *(values[affected] for values in sums), self._alpha, scratch
        )
        self._p_ab[affected] = p_ab
        self._p_ba[affected] = p_ba


def independence_flat(
    arrays: ClaimArrays,
    dependence: DependenceArrays,
    *,
    copy_prob_r: float,
    ordering: str = "dependent_first",
    discount_mode: str = "directed",
    scratch: KernelScratch | None = None,
) -> np.ndarray:
    """Step 2 (Eq. 16): one independence probability per claim.

    A copied claim should not count as independent support, so the
    providers of each value are ordered greedily and each is discounted
    only against its predecessors,
    ``I_v^j(i) = Π_{i' before i} (1 - r · P(i → i' | D))``.  The first
    worker has the highest total dependence inside the group
    (``ordering="dependent_first"``, the paper text; the lowest for
    ``"independent_first"``, the pseudocode variant); each next pick is
    the remaining worker with the largest directed dependence on an
    already-selected one (Alg. 1 line 19).  ``discount_mode="total"``
    uses ``P(i → i') + P(i' → i)`` in the product: a verbatim copier's
    direction is unidentifiable (each direction caps near 0.5), and
    only the total discounts the pair to one effective vote (DESIGN.md
    §4).

    The greedy ordering is sequential inside each multi-provider value
    group, so it runs compiled: one call per group size into the C
    kernel ``independence.c`` (built once, :mod:`~repro.core.native`),
    which gathers each group's member-pair dependence through the
    precomputed
    :attr:`~repro.core.indexing.ClaimArrays.multi_group_slots` straight
    from ``p_ab``/``p_ba``.  Single-provider groups keep the
    definitional ``I = 1`` without being visited at all.  The kernel
    reproduces the batched numpy kernel it replaced
    (tests/oracles/independence.py) byte for byte: numpy's pairwise
    summation for the totals, first-index ``argmax``/``argmin``, and
    unfused ``x * (-r) + 1.0`` factors multiplied in order (DESIGN.md
    §7).

    Ties break on the worker index, as in the scalar ordering oracle:
    groups store workers ascending, and the first (smallest-index)
    extreme wins.
    """
    if not 0.0 < copy_prob_r < 1.0:
        raise ValueError(f"copy_prob_r must be in (0, 1), got {copy_prob_r}")
    if ordering not in ("dependent_first", "independent_first"):
        raise ValueError(
            "ordering must be 'dependent_first' or 'independent_first', "
            f"got {ordering!r}"
        )
    if discount_mode not in ("directed", "total"):
        raise ValueError(
            f"discount_mode must be 'directed' or 'total', got {discount_mode!r}"
        )
    indep = np.ones(arrays.n_claims, dtype=np.float64)
    buckets = arrays.multi_group_buckets
    if not buckets:
        return indep

    scratch = scratch if scratch is not None else _thread_scratch()
    largest = max(m for m, _ in buckets)
    work = scratch.array("indep_work", largest * largest + 3 * largest)
    order = scratch.array("indep_order", 2 * largest, np.int64)
    p_ab = np.ascontiguousarray(dependence.p_ab, dtype=np.float64)
    p_ba = np.ascontiguousarray(dependence.p_ba, dtype=np.float64)
    if not len(p_ab) == len(p_ba) == arrays.n_pairs:
        raise ValueError(
            f"dependence holds {len(p_ab)}/{len(p_ba)} pairs, the claims "
            f"{arrays.n_pairs}"
        )
    ab, ba, work_at, order_at, indep_at = (
        a.ctypes.data for a in (p_ab, p_ba, work, order, indep)
    )
    dependent_first = ordering == "dependent_first"
    total_mode = discount_mode == "total"
    for (m, claim_idx), slots in zip(buckets, arrays.multi_group_slots):
        claim_idx = np.ascontiguousarray(claim_idx, dtype=np.int64)
        slots = np.ascontiguousarray(slots, dtype=np.intp)
        _kernels.independence_bucket(
            len(claim_idx), m, claim_idx.ctypes.data, slots.ctypes.data,
            ab, ba, copy_prob_r, dependent_first, total_mode,
            work_at, order_at, indep_at,
        )
    return indep


def _segment_softmax(scores: np.ndarray, seg_ids: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Softmax within each segment of a flat score array.

    ``seg_ids`` assigns each element to a segment; ``ptr`` is the CSR
    pointer of the (contiguous) segments.  Matches the scalar kernels'
    peak-shifted exponentiation.
    """
    n_seg = len(ptr) - 1
    if len(scores) == 0:
        return scores.copy()
    starts = ptr[:-1]
    nonempty = ptr[1:] > starts
    peak = np.full(n_seg, -np.inf)
    peak[nonempty] = np.maximum.reduceat(scores, starts[nonempty])
    weights = np.exp(scores - peak[seg_ids])
    totals = np.bincount(seg_ids, weights=weights, minlength=n_seg)
    return weights / totals[seg_ids]


def plain_posterior_groups(
    arrays: ClaimArrays,
    claim_acc: np.ndarray,
    *,
    false_values,
    accuracy_clamp: tuple[float, float] = (0.01, 0.99),
    scratch: KernelScratch | None = None,
) -> np.ndarray:
    """Eq. 20 posteriors (undiscounted), one probability per value group.

    When the false-value model is candidate-free (the uniform default:
    ``q`` depends only on the task), the whole computation is three
    segment sums; otherwise each task builds its small ``K x K``
    false-value matrix through the scalar model API.
    """
    lo, hi = accuracy_clamp
    index = arrays.index
    scratch = scratch if scratch is not None else _thread_scratch()

    if getattr(false_values, "candidate_free", False):
        value_q = false_values.value_probability_array(index)
        n = arrays.n_claims
        # Per-claim ln A and ln((1-A) q).
        acc = np.clip(claim_acc, lo, hi, out=scratch.array("pp_acc", n))
        log_acc = np.log(acc, out=scratch.array("pp_log_acc", n))
        log_false = np.subtract(1.0, acc, out=scratch.array("pp_log_false", n))
        q = np.take(value_q, arrays.claim_group, out=scratch.array("pp_q", n))
        np.multiply(log_false, q, out=log_false)
        np.maximum(log_false, _MIN_PROB, out=log_false)
        np.log(log_false, out=log_false)
        # Score of group g = Σ_{claims in g} log A + Σ_{other claims of
        # the task} log((1-A) q): per-task totals minus the group's own.
        task_false = np.bincount(
            arrays.claim_task, weights=log_false, minlength=index.n_tasks
        )
        own_acc = np.bincount(
            arrays.claim_group, weights=log_acc, minlength=arrays.n_groups
        )
        own_false = np.bincount(
            arrays.claim_group, weights=log_false, minlength=arrays.n_groups
        )
        scores = own_acc + task_false[arrays.group_task] - own_false
        return _segment_softmax(scores, arrays.group_task, arrays.task_group_ptr)

    # General model: per-task K x K false-value matrices, computed once
    # per index (they are iteration-invariant) and cached on the model.
    # Each candidate's score adds its claims' terms in the task's claim
    # arrival order (``arrays.claim_seq``), as the scalar transcription
    # does: candidates whose scores tie exactly in real arithmetic then
    # tie in floating point too, and line 28's tie-break decides.
    acc = np.clip(claim_acc, lo, hi)
    log_acc = np.log(acc)
    q_matrices = false_values.value_probability_matrices(index)
    scores = np.empty(arrays.n_groups, dtype=np.float64)
    for j in range(index.n_tasks):
        g0, g1 = int(arrays.task_group_ptr[j]), int(arrays.task_group_ptr[j + 1])
        if g0 == g1:
            continue
        c0, c1 = int(arrays.task_ptr[j]), int(arrays.task_ptr[j + 1])
        rows = c0 + np.argsort(arrays.claim_seq[c0:c1])
        q = q_matrices[j]
        codes = arrays.claim_code[rows]
        contrib = _safe_log((1.0 - acc[rows])[:, None] * q[codes, :])
        own = codes[:, None] == np.arange(g1 - g0)[None, :]
        contrib = np.where(own, log_acc[rows, None], contrib)
        scores[g0:g1] = contrib.sum(axis=0)
    return _segment_softmax(scores, arrays.group_task, arrays.task_group_ptr)


def discounted_posterior_groups(
    arrays: ClaimArrays,
    claim_acc: np.ndarray,
    indep: np.ndarray,
    *,
    group_q: np.ndarray,
    accuracy_clamp: tuple[float, float] = (0.01, 0.99),
    scratch: KernelScratch | None = None,
) -> np.ndarray:
    """Independence-weighted posteriors, one per value group.

    Each claim contributes ``I · (ln A - ln((1-A) q))`` to its group's
    log score (Dong et al. [15]; with all ``I = 1`` this is Eq. 20);
    scores are softmax-normalized per task.  ``group_q`` is the
    per-group false-value probability (already floored at the
    likelihood clamp), typically
    :meth:`FalseValueDistribution.value_probability_array`.
    """
    lo, hi = accuracy_clamp
    scratch = scratch if scratch is not None else _thread_scratch()
    n = arrays.n_claims
    acc = np.clip(claim_acc, lo, hi, out=scratch.array("dq_acc", n))
    term = np.log(acc, out=scratch.array("dq_term", n))
    false_part = np.subtract(1.0, acc, out=scratch.array("dq_false", n))
    q = np.take(group_q, arrays.claim_group, out=scratch.array("dq_q", n))
    np.multiply(false_part, q, out=false_part)
    np.maximum(false_part, _MIN_PROB, out=false_part)
    np.log(false_part, out=false_part)
    np.subtract(term, false_part, out=term)
    np.multiply(term, indep, out=term)
    scores = np.bincount(arrays.claim_group, weights=term, minlength=arrays.n_groups)
    return _segment_softmax(scores, arrays.group_task, arrays.task_group_ptr)


def accuracy_flat(
    arrays: ClaimArrays,
    group_post: np.ndarray,
    *,
    granularity: str = "worker",
) -> np.ndarray:
    """Eq. 17: refresh the per-claim accuracies from the posteriors.

    ``"worker"`` granularity averages each worker's claim posteriors and
    broadcasts the mean back to its claims; ``"task"`` keeps the
    per-claim posterior.
    """
    if granularity not in ("worker", "task"):
        raise ValueError(
            f"granularity must be one of ('worker', 'task'), got {granularity!r}"
        )
    posterior = group_post[arrays.claim_group]
    if granularity == "task":
        return posterior
    n_workers = arrays.index.n_workers
    sums = np.bincount(arrays.claim_worker, weights=posterior, minlength=n_workers)
    counts = np.bincount(arrays.claim_worker, minlength=n_workers)
    means = np.divide(
        sums, counts, out=np.zeros(n_workers), where=counts > 0
    )
    return means[arrays.claim_worker]


def support_flat(
    arrays: ClaimArrays,
    claim_acc: np.ndarray,
    indep: np.ndarray,
    *,
    similarity=None,
    similarity_weight: float = 0.0,
) -> np.ndarray:
    """Alg. 1 line 28: support count per value group, one segment sum.

    The optional Sec. IV-A adjustment (Eq. 21) runs per task over the
    group totals: a worker submits one value per task, so the "providers
    of v' outside W_v" in the formula are simply all of W_v', and the
    bonus is ``ρ · Σ sim(v, v') · sc_j(v')`` over the base counts.
    """
    if similarity is not None and not 0.0 <= similarity_weight <= 1.0:
        raise ValueError(
            f"similarity_weight must be in [0, 1], got {similarity_weight}"
        )
    base = np.bincount(
        arrays.claim_group, weights=claim_acc * indep, minlength=arrays.n_groups
    )
    if similarity is None or similarity_weight == 0.0:
        return base
    adjusted = base.copy()
    for j in range(arrays.index.n_tasks):
        g0, g1 = int(arrays.task_group_ptr[j]), int(arrays.task_group_ptr[j + 1])
        if g1 - g0 <= 1:
            continue
        values = arrays.group_values[g0:g1]
        for gi in range(g0, g1):
            bonus = 0.0
            for gk in range(g0, g1):
                if gk == gi:
                    continue
                sim = similarity(values[gi - g0], values[gk - g0])
                if sim > 0.0:
                    bonus += sim * base[gk]
            adjusted[gi] = base[gi] + similarity_weight * bonus
    return adjusted


def select_truth_codes(arrays: ClaimArrays, group_support: np.ndarray) -> np.ndarray:
    """Line 28's argmax: per-task winning value code (ties to smallest)."""
    return segment_first_argmax_code(
        group_support, arrays.group_task, arrays.group_code, arrays.task_group_ptr
    )


# -- conversions back to the string-keyed public structures --------------


def dense_accuracy(arrays: ClaimArrays, claim_acc: np.ndarray) -> np.ndarray:
    """Scatter the flat per-claim accuracies into the dense ``A`` matrix."""
    index = arrays.index
    matrix = np.zeros((index.n_workers, index.n_tasks), dtype=np.float64)
    matrix[arrays.claim_worker, arrays.claim_task] = claim_acc
    return matrix


def posterior_table(
    arrays: ClaimArrays, group_post: np.ndarray
) -> list[dict[str, float]]:
    """Per-group posteriors -> the scalar ``PosteriorTable`` shape."""
    return _group_table(arrays, group_post)


def support_table(
    arrays: ClaimArrays, group_support: np.ndarray
) -> list[dict[str, float]]:
    """Per-group support -> the scalar ``SupportTable`` shape."""
    return _group_table(arrays, group_support)


def _group_table(arrays: ClaimArrays, values: np.ndarray) -> list[dict[str, float]]:
    table: list[dict[str, float]] = []
    ptr = arrays.task_group_ptr
    for j in range(arrays.index.n_tasks):
        g0, g1 = int(ptr[j]), int(ptr[j + 1])
        table.append(
            {arrays.group_values[g]: float(values[g]) for g in range(g0, g1)}
        )
    return table


def dependence_table(
    arrays: ClaimArrays, dependence: DependenceArrays
) -> DependenceView:
    """Pair arrays -> the scalar ``(a, b) -> DependencePosterior`` shape,
    as a view keyed by worker position (no per-pair objects)."""
    return DependenceView(
        arrays.pair_a,
        arrays.pair_b,
        dependence.p_ab,
        dependence.p_ba,
        range(arrays.index.n_workers),
    )
