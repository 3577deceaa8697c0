"""The numpy pair-table and slot-map builder the compiled walk replaced.

:class:`~repro.core.indexing.ClaimArrays` builds its co-answering pair
tables and the Eq. 16 slot map (``multi_group_slots``) in one compiled
walk (``src/repro/core/pairtables.c``).  These are the vectorized numpy
builders it replaced, kept as its byte-identity reference: every pair of
claims on one task by arithmetic (:func:`task_claim_pairs`), one
``argsort`` of a unique int64 row key (:func:`pair_row_keys`) into
pair-table order (:func:`sorted_pair_tables`), and one scatter of the
same-value rows into the slot map (:func:`scatter_group_slots`).
"""

from __future__ import annotations

import numpy as np

from repro.core.indexing import ClaimArrays, _concat_ranges
from repro.errors import DataFormatError

__all__ = [
    "oracle_pair_tables",
    "pair_row_keys",
    "pair_row_same",
    "scatter_group_slots",
    "sorted_pair_tables",
    "task_claim_pairs",
]


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


def task_claim_pairs(arrays: ClaimArrays) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of claims on one task, smaller worker's claim first.

    The upper triangles of the tasks' claim blocks with each block
    ordered by worker, enumerated by arithmetic instead of a per-task
    ``triu_indices`` loop: the claim at offset ``k`` of a block ending
    at ``e`` pairs with the ``e - k - 1`` claims after it, so the first
    claims repeat each offset that many times and the second ones
    concatenate the ranges ``k + 1 .. e - 1``.
    """
    claim_task = arrays.claim_task
    claims = np.argsort(claim_task * arrays.n_workers + arrays.claim_worker)
    offsets = np.arange(len(claims), dtype=np.int64)
    later = arrays.task_ptr[claim_task + 1] - offsets - 1
    return claims[np.repeat(offsets, later)], claims[_concat_ranges(offsets + 1, later)]


def sorted_pair_tables(
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
    n_workers, n_tasks = arrays.n_workers, arrays.n_tasks
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


def oracle_pair_tables(arrays: ClaimArrays) -> tuple[np.ndarray, ...]:
    """The seven pair tables ``ClaimArrays._pair_tables`` must equal."""
    return sorted_pair_tables(arrays, *task_claim_pairs(arrays))


def pair_row_same(arrays: ClaimArrays) -> np.ndarray:
    """Per pair-table row: do the pair's two claims carry one value?"""
    return arrays.claim_code[arrays.ps_claim_a] == arrays.claim_code[arrays.ps_claim_b]


def scatter_group_slots(
    arrays: ClaimArrays, tables: tuple[np.ndarray, ...]
) -> list[np.ndarray]:
    """The slot map ``ClaimArrays.multi_group_slots`` must equal, from
    the seven pair ``tables`` (:func:`oracle_pair_tables`).

    One scatter of the same-value pair rows (their two claims share a
    value group, since they share the row's task) into each
    multi-provider group's ``m x m`` block, over a flat array prefilled
    with the diagonal's ``2 * n_pairs``.
    """
    pair_a, _, _, ps_pair, _, ps_claim_a, ps_claim_b = tables
    buckets = arrays.multi_group_buckets
    n_pairs = len(pair_a)
    bucket_start = []
    block = np.zeros(arrays.n_groups, dtype=np.int64)
    total = 0
    for m, claim_idx in buckets:
        bucket_start.append(total)
        block[arrays.claim_group[claim_idx[:, 0]]] = total + m * m * np.arange(len(claim_idx))
        total += claim_idx.size * m
    flat = np.full(total, 2 * n_pairs, dtype=np.intp)
    same = np.flatnonzero(arrays.claim_code[ps_claim_a] == arrays.claim_code[ps_claim_b])
    claim_a = ps_claim_a[same]
    claim_b = ps_claim_b[same]
    group = arrays.claim_group[claim_a]
    start = arrays.group_ptr[group]
    size = arrays.group_size[group]
    local_a = claim_a - start
    local_b = claim_b - start
    pair = ps_pair[same]
    flat[block[group] + local_a * size + local_b] = pair
    flat[block[group] + local_b * size + local_a] = pair + n_pairs
    return [
        flat[begin : begin + claim_idx.size * m].reshape(-1, m, m)
        for begin, (m, claim_idx) in zip(bucket_start, buckets)
    ]
