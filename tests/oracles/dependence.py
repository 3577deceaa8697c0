"""Scalar transcription of DATE step 1 (Eqs. 7-15), kept as an oracle.

Per-pair Python loops over the dict-side index structures: each shared
task is split into ``T_s`` / ``T_f`` / ``T_d`` and contributes its
log-likelihood terms to the three hypotheses, then Bayes' rule with the
α/2 prior split normalizes in log space.  The product computes the same
posteriors with :func:`repro.core.engine.pairwise_dependence_arrays`;
the differential suites pin the two together.

:func:`classwise_score_pair_rows` is the numpy pair-row scorer the
compiled ``dependence.c`` pass replaced, kept as its byte-identity
reference.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.dependence import DependencePosterior
from repro.core.engine import DependenceArrays
from repro.core.falsedist import FalseValueDistribution, UniformFalseValues
from repro.core.indexing import ClaimArrays, DatasetIndex

from .indexing import claims_by_worker, shared_tasks
from .pairtables import pair_row_same

__all__ = [
    "PairRowClass",
    "classwise_score_pair_rows",
    "compute_pairwise_dependence",
    "pair_row_class",
    "pair_row_classes",
    "directed_matrix",
    "directed_probability",
    "total_dependence",
]

# Likelihood terms are clamped away from 0 so a single impossible-looking
# observation cannot produce -inf log likelihoods.
_MIN_PROB = 1e-12


def _log(x: float) -> float:
    return math.log(max(x, _MIN_PROB))


def compute_pairwise_dependence(
    index: DatasetIndex,
    truths: Sequence[str | None],
    accuracy: np.ndarray,
    *,
    copy_prob_r: float,
    prior_alpha: float,
    false_values: FalseValueDistribution | None = None,
    accuracy_clamp: tuple[float, float] = (0.01, 0.99),
) -> dict[tuple[int, int], DependencePosterior]:
    """Compute dependence posteriors for all co-answering pairs.

    Parameters
    ----------
    index:
        Prebuilt dataset index.
    truths:
        Current per-task truth estimates (task-index order); used to
        split shared tasks into ``T_s`` and ``T_f``.
    accuracy:
        Dense ``n_workers x n_tasks`` accuracy matrix (current ``A``).
    copy_prob_r:
        The assumed probability ``r`` that a copied worker's value is
        copied rather than independently produced.
    prior_alpha:
        Total prior probability ``α`` of dependence for a pair.
    false_values:
        False-value distribution model; defaults to the paper's uniform
        assumption.
    accuracy_clamp:
        Accuracies are clamped into this open interval before use so
        the likelihoods stay finite.

    Returns
    -------
    dict
        ``(a, b) -> DependencePosterior`` with ``a < b``, covering
        exactly ``co_answering_pairs(index)``.
    """
    if not 0.0 < copy_prob_r < 1.0:
        raise ValueError(f"copy_prob_r must be in (0, 1), got {copy_prob_r}")
    if not 0.0 < prior_alpha < 1.0:
        raise ValueError(f"prior_alpha must be in (0, 1), got {prior_alpha}")
    false_values = false_values or UniformFalseValues()
    lo, hi = accuracy_clamp

    r = copy_prob_r
    log_prior_dep = math.log(prior_alpha / 2.0)
    log_prior_ind = math.log(1.0 - prior_alpha)

    # Collision probabilities are truth-independent per task; cache them.
    collision = [
        false_values.collision_probability(j, index) for j in range(index.n_tasks)
    ]

    posteriors: dict[tuple[int, int], DependencePosterior] = {}
    claims = claims_by_worker(index)
    for (a, b), shared in shared_tasks(index).items():
        log_ind = 0.0  # log P(D | a ⊥ b)
        log_ab = 0.0  # log P(D | a → b)
        log_ba = 0.0  # log P(D | b → a)
        claims_a = claims[a]
        claims_b = claims[b]
        for j in shared:
            value_a = claims_a[j]
            value_b = claims_b[j]
            acc_a = min(max(accuracy[a, j], lo), hi)
            acc_b = min(max(accuracy[b, j], lo), hi)
            if value_a == value_b:
                if value_a == truths[j]:
                    # T_s: same true value (Eqs. 7, 11).
                    p_same = acc_a * acc_b
                    src_a = acc_a  # quality of the copied value under b→a
                    src_b = acc_b  # ... and under a→b
                else:
                    # T_f: same false value (Eqs. 8, 12, 22).
                    p_same = (1.0 - acc_a) * (1.0 - acc_b) * collision[j]
                    src_a = 1.0 - acc_a
                    src_b = 1.0 - acc_b
                log_ind += _log(p_same)
                log_ab += _log(src_b * r + p_same * (1.0 - r))
                log_ba += _log(src_a * r + p_same * (1.0 - r))
            else:
                # T_d: different values (Eqs. 9, 13): P_d = 1 - P_s - P_f.
                p_same_true = acc_a * acc_b
                p_same_false = (1.0 - acc_a) * (1.0 - acc_b) * collision[j]
                p_diff = max(1.0 - p_same_true - p_same_false, _MIN_PROB)
                log_ind += _log(p_diff)
                log_diff_dep = _log(p_diff * (1.0 - r))
                log_ab += log_diff_dep
                log_ba += log_diff_dep
        # Bayes over the three hypotheses, normalized in log space.
        score_ind = log_prior_ind + log_ind
        score_ab = log_prior_dep + log_ab
        score_ba = log_prior_dep + log_ba
        peak = max(score_ind, score_ab, score_ba)
        w_ind = math.exp(score_ind - peak)
        w_ab = math.exp(score_ab - peak)
        w_ba = math.exp(score_ba - peak)
        total = w_ind + w_ab + w_ba
        posteriors[(a, b)] = DependencePosterior(
            p_a_to_b=w_ab / total,
            p_b_to_a=w_ba / total,
        )
    return posteriors


def directed_probability(
    posteriors: dict[tuple[int, int], DependencePosterior],
    copier: int,
    source: int,
) -> float:
    """``P(copier → source | D)`` from a posterior table, 0 if the pair never met."""
    if copier == source:
        return 0.0
    if copier < source:
        entry = posteriors.get((copier, source))
        return entry.p_a_to_b if entry is not None else 0.0
    entry = posteriors.get((source, copier))
    return entry.p_b_to_a if entry is not None else 0.0


def total_dependence(
    posteriors: dict[tuple[int, int], DependencePosterior],
    a: int,
    b: int,
) -> float:
    """``P(a→b | D) + P(b→a | D)``, 0 if the pair never met."""
    key = (a, b) if a < b else (b, a)
    entry = posteriors.get(key)
    return entry.p_dependent if entry is not None else 0.0


def directed_matrix(dependence: DependenceArrays, arrays: ClaimArrays) -> np.ndarray:
    """Dense ``D[i, k] = P(i -> k | D)`` lookup (0 where undefined).

    O(n_workers²) memory — a test oracle for deliberately small
    worlds.  The kernels gather through
    :attr:`~repro.core.indexing.ClaimArrays.multi_group_slots`
    into :meth:`~repro.core.engine.DependenceArrays.slot_values`
    instead, which is O(pairs).
    """
    n = arrays.n_workers
    matrix = np.zeros((n, n), dtype=np.float64)
    matrix[arrays.pair_a, arrays.pair_b] = dependence.p_ab
    matrix[arrays.pair_b, arrays.pair_a] = dependence.p_ba
    return matrix


# -- the classwise numpy pair-row scorer ---------------------------------


@dataclass(frozen=True)
class PairRowClass:
    """Pair-table rows of one static class, with their inputs gathered.

    ``rows`` are positions into the ``ps_*`` tables (ascending in
    :func:`pair_row_classes`); ``claim_a``, ``claim_b`` and ``task`` are
    those rows' ``ps_claim_a``, ``ps_claim_b`` and ``ps_task``; ``code``
    is the value code both claims share in the same-value class and
    ``None`` in the differing class.  Slicing slices every field.
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


def pair_row_classes(arrays: ClaimArrays) -> tuple[PairRowClass, PairRowClass]:
    """All pair-table rows as ``(same_value, differing)`` classes."""
    same = pair_row_same(arrays)
    return (
        pair_row_class(arrays, np.flatnonzero(same), same=True),
        pair_row_class(arrays, np.flatnonzero(~same), same=False),
    )


def pair_row_class(arrays: ClaimArrays, rows: np.ndarray, *, same: bool) -> PairRowClass:
    """The pair-table ``rows`` (all of one class) with their inputs."""
    claim_a = arrays.ps_claim_a[rows]
    return PairRowClass(
        rows=rows,
        claim_a=claim_a,
        claim_b=arrays.ps_claim_b[rows],
        task=arrays.ps_task[rows],
        code=arrays.claim_code[claim_a] if same else None,
    )


def classwise_score_pair_rows(
    arrays: ClaimArrays,
    truth_codes: np.ndarray,
    claim_acc: np.ndarray,
    *,
    r: float,
    collision: np.ndarray,
    lo: float,
    hi: float,
    rows,
    out_ind: np.ndarray,
    out_ab: np.ndarray,
    out_ba: np.ndarray,
) -> None:
    """Per-row hypothesis log-likelihood terms for ``rows`` (Eqs. 7-13).

    Every output element depends only on that row's own inputs, so
    scoring any subset reproduces bit for bit what a full pass writes at
    those positions.  ``rows`` is a slice or an int index array;
    ``out_*`` hold one entry per row of ``rows``.

    Rows are scored per static class (:func:`pair_row_classes`):
    differing rows need neither the truth nor the same-value terms, and
    same-value rows need no ``P_d``.  Each class writes its results at
    its own positions, so splitting changes no row's arithmetic.
    """
    (same_at, same), (differ_at, differ) = _row_classes(arrays, rows)

    # Differing rows (T_d): P_d = 1 - P_s - P_f, with both copy
    # directions sharing log(P_d · (1 - r)) (Eqs. 9, 13, 14).
    n = len(differ.rows)
    acc_a = _clipped_take(claim_acc, differ.claim_a, lo, hi, np.empty(n))
    acc_b = _clipped_take(claim_acc, differ.claim_b, lo, hi, np.empty(n))
    p_diff = np.multiply(acc_a, acc_b, out=np.empty(n))
    np.subtract(1.0, p_diff, out=p_diff)
    np.subtract(1.0, acc_a, out=acc_a)
    np.subtract(1.0, acc_b, out=acc_b)
    np.multiply(acc_a, acc_b, out=acc_a)
    np.multiply(acc_a, np.take(collision, differ.task, out=acc_b, mode="clip"), out=acc_a)
    np.subtract(p_diff, acc_a, out=p_diff)
    np.maximum(p_diff, _MIN_PROB, out=p_diff)
    out_ind[differ_at] = np.log(p_diff, out=acc_a)
    np.multiply(p_diff, 1.0 - r, out=p_diff)
    np.maximum(p_diff, _MIN_PROB, out=p_diff)
    np.log(p_diff, out=p_diff)
    out_ab[differ_at] = p_diff
    out_ba[differ_at] = p_diff

    # Same-value rows: T_s rows (the shared value is the truth) score
    # the true-agreement likelihood P_s = A·A' with copy source A, T_f
    # rows the false collision P_f = (1-A)(1-A')·col with source 1 - A
    # (Eqs. 7, 8, 11, 12, 22); both directions are log(src · r +
    # P · (1 - r)).
    n = len(same.rows)
    src_a = _clipped_take(claim_acc, same.claim_a, lo, hi, np.empty(n))
    src_b = _clipped_take(claim_acc, same.claim_b, lo, hi, np.empty(n))
    truth = np.take(
        truth_codes, same.task, out=np.empty(n, dtype=np.int64), mode="clip"
    )
    on_truth = np.equal(same.code, truth, out=np.empty(n))
    off_truth = np.subtract(1.0, on_truth, out=np.empty(n))
    for src in (src_a, src_b):
        _select(on_truth, src, off_truth, np.subtract(1.0, src, out=np.empty(n)))
    p_same = np.multiply(src_a, src_b, out=np.empty(n))
    col = np.take(collision, same.task, out=np.empty(n), mode="clip")
    # The collision factor is an exact 1.0 on T_s rows: col · 0 + 1.
    np.multiply(col, off_truth, out=col)
    np.add(col, on_truth, out=col)
    np.multiply(p_same, col, out=p_same)
    np.maximum(p_same, _MIN_PROB, out=col)
    out_ind[same_at] = np.log(col, out=col)
    np.multiply(p_same, 1.0 - r, out=p_same)
    for src, out in ((src_b, out_ab), (src_a, out_ba)):
        np.multiply(src, r, out=src)
        np.add(src, p_same, out=src)
        np.maximum(src, _MIN_PROB, out=src)
        out[same_at] = np.log(src, out=src)


def _clipped_take(
    values: np.ndarray, index: np.ndarray, lo: float, hi: float, out: np.ndarray
) -> np.ndarray:
    """``clip(values[index], lo, hi)`` written into ``out``.

    ``index`` holds the arrays' own claim positions, always in range;
    ``mode="clip"`` spares ``take`` the buffered copy its bounds-checking
    default makes when given ``out``.
    """
    np.take(values, index, out=out, mode="clip")
    return np.clip(out, lo, hi, out=out)


def _select(
    mask: np.ndarray, values: np.ndarray, other_mask: np.ndarray, other: np.ndarray
) -> np.ndarray:
    """``where(mask, values, other)`` written into ``values``.

    ``mask`` and ``other_mask = 1 - mask`` are 0.0/1.0 arrays, so this is
    the blend ``values · mask + other · other_mask`` (``other`` is
    overwritten) — exact for finite inputs, as ``x · 1 = x``,
    ``x · 0 = ±0`` and ``x + ±0 = x``, and cheaper than a masked
    ``copyto``.
    """
    np.multiply(values, mask, out=values)
    np.multiply(other, other_mask, out=other)
    return np.add(values, other, out=values)


def _row_classes(
    arrays: ClaimArrays, rows
) -> tuple[tuple[np.ndarray, PairRowClass], tuple[np.ndarray, PairRowClass]]:
    """``rows`` split into its ``(same_value, differing)`` classes.

    Each class comes with its positions within ``rows`` — where its
    scores land in the caller's outputs.  A slice takes contiguous
    views of the classes (their rows ascend); an index array splits by
    the per-row flag and gathers its classes' inputs.
    """
    if isinstance(rows, slice):
        parts = []
        for cls in pair_row_classes(arrays):
            first, last = np.searchsorted(cls.rows, (rows.start, rows.stop))
            part = cls[first:last]
            parts.append((part.rows - rows.start if rows.start else part.rows, part))
        return parts[0], parts[1]
    flag = pair_row_same(arrays)[rows]
    same_at, differ_at = np.flatnonzero(flag), np.flatnonzero(~flag)
    return (
        (same_at, pair_row_class(arrays, rows[same_at], same=True)),
        (differ_at, pair_row_class(arrays, rows[differ_at], same=False)),
    )
