"""The SOAC problem — Social Optimization Accuracy Coverage (Eqs. 4-6).

Minimize the social cost ``Σ c_i x_i`` subject to the accuracy-coverage
constraint ``Σ_i A_i^j x_i ≥ Θ_j`` for every task ``t_j``.  The problem
is NP-hard (Theorem 1, by restriction to Weighted Set Cover), so the
mechanism solves it greedily; :mod:`repro.auction.optimal` solves small
instances exactly for comparison.

:class:`SOACInstance` freezes everything the auction algorithms need —
requirement vector, accuracy matrix, bid prices, and (for accounting
only) true costs — in dense numpy form, and provides the coverage and
feasibility primitives they share.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..core.date import TruthDiscoveryResult
from ..errors import ConfigurationError, InfeasibleCoverageError
from ..types import Bid, Dataset

__all__ = ["SOACInstance", "SparseAccuracy"]

#: Requirements below this tolerance count as fully covered.
COVERAGE_TOL = 1e-9


@dataclass(frozen=True)
class SparseAccuracy:
    """CSR + CSC index of the non-zero accuracy entries of an instance.

    Workers only cover the tasks they bid (``A_i^j = 0`` elsewhere), so
    the accuracy matrix is sparse in any realistic campaign.  The
    auction engine uses this structure for its *incremental*
    bookkeeping — which task columns a selected winner changes, and
    which worker rows are affected by those columns — while the capped
    coverage sums themselves stay dense so they are bit-identical to
    the scalar oracle (DESIGN.md §10).

    Attributes
    ----------
    row_ptr / row_cols:
        CSR layout: ``row_cols[row_ptr[i]:row_ptr[i+1]]`` are the task
        columns worker ``i`` covers.
    col_ptr / col_rows:
        CSC layout: ``col_rows[col_ptr[j]:col_ptr[j+1]]`` are the
        worker rows with positive accuracy on task ``j``.
    """

    row_ptr: np.ndarray
    row_cols: np.ndarray
    col_ptr: np.ndarray
    col_rows: np.ndarray

    @classmethod
    def from_dense(cls, accuracy: np.ndarray) -> "SparseAccuracy":
        n, m = accuracy.shape
        rows, cols = np.nonzero(accuracy)  # row-major order == CSR order
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
        order = np.argsort(cols, kind="stable")
        col_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=m), out=col_ptr[1:])
        return cls(
            row_ptr=row_ptr,
            row_cols=cols,
            col_ptr=col_ptr,
            col_rows=rows[order],
        )

    @property
    def nnz(self) -> int:
        return len(self.row_cols)

    def tasks_of(self, worker: int) -> np.ndarray:
        """Task columns one worker covers (a CSR row slice)."""
        return self.row_cols[self.row_ptr[worker] : self.row_ptr[worker + 1]]

    def workers_on(self, tasks: np.ndarray) -> np.ndarray:
        """Sorted unique worker rows touching any of the given tasks."""
        tasks = np.asarray(tasks, dtype=np.int64)
        if tasks.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self.col_ptr[tasks]
        counts = self.col_ptr[tasks + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # Flat gather of every CSC segment: offset each segment's local
        # arange by its start (the standard repeat/cumsum ranges trick).
        segment_first = np.repeat(np.cumsum(counts) - counts, counts)
        flat = np.repeat(starts, counts) + (np.arange(total) - segment_first)
        return np.unique(self.col_rows[flat])


@dataclass(frozen=True, eq=False)
class SOACInstance:
    """One auction instance over ``n`` bidders and ``m`` tasks.

    Attributes
    ----------
    worker_ids / task_ids:
        Stable orderings; all arrays are indexed accordingly.
    requirements:
        ``Θ_j`` per task (Eq. 5 right-hand side).
    accuracy:
        ``A_i^j`` matrix, zero where worker ``i`` did not bid task
        ``t_j``.
    bids:
        Declared prices ``b_i``.
    costs:
        True private costs ``c_i`` (used only to report social cost;
        equals ``bids`` under truthful bidding).
    task_values:
        Platform values ``V_j``, used for platform-utility accounting.
    """

    worker_ids: tuple[str, ...]
    task_ids: tuple[str, ...]
    requirements: np.ndarray
    accuracy: np.ndarray
    bids: np.ndarray
    costs: np.ndarray
    task_values: np.ndarray

    def __post_init__(self) -> None:
        n, m = len(self.worker_ids), len(self.task_ids)
        object.__setattr__(
            self, "requirements", np.asarray(self.requirements, dtype=np.float64)
        )
        object.__setattr__(self, "accuracy", np.asarray(self.accuracy, dtype=np.float64))
        object.__setattr__(self, "bids", np.asarray(self.bids, dtype=np.float64))
        object.__setattr__(self, "costs", np.asarray(self.costs, dtype=np.float64))
        object.__setattr__(
            self, "task_values", np.asarray(self.task_values, dtype=np.float64)
        )
        if self.requirements.shape != (m,):
            raise ConfigurationError(
                f"requirements must have shape ({m},), got {self.requirements.shape}"
            )
        if self.accuracy.shape != (n, m):
            raise ConfigurationError(
                f"accuracy must have shape ({n}, {m}), got {self.accuracy.shape}"
            )
        if self.bids.shape != (n,):
            raise ConfigurationError(
                f"bids must have shape ({n},), got {self.bids.shape}"
            )
        if self.costs.shape != (n,):
            raise ConfigurationError(
                f"costs must have shape ({n},), got {self.costs.shape}"
            )
        if self.task_values.shape != (m,):
            raise ConfigurationError(
                f"task_values must have shape ({m},), got {self.task_values.shape}"
            )
        # Written as "all valid" tests so NaN fails them too.  The
        # engine's lazy payment continuation relies on finite,
        # non-negative bids (DESIGN.md §10).
        for name in ("requirements", "bids", "costs"):
            values = getattr(self, name)
            if not np.all(np.isfinite(values) & (values >= 0)):
                raise ConfigurationError(f"{name} must be finite and non-negative")
        if not np.all((self.accuracy >= 0) & (self.accuracy <= 1)):
            raise ConfigurationError("accuracies must lie in [0, 1]")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_truth_discovery(
        cls,
        dataset: Dataset,
        result: TruthDiscoveryResult,
        *,
        bids: Sequence[Bid] | None = None,
        requirements: Mapping[str, float] | None = None,
    ) -> "SOACInstance":
        """Build the auction instance IMC2 passes from stage 1 to stage 2.

        Workers that submitted no bid (no claims) are excluded.  The
        accuracy matrix comes straight from the truth-discovery result;
        a worker's accuracy is zeroed outside its bid task set, so a
        worker cannot cover tasks it did not offer to perform.
        """
        bids = list(bids) if bids is not None else dataset.bids()
        bid_by_worker = {b.worker_id: b for b in bids}
        worker_ids = tuple(
            w.worker_id for w in dataset.workers if w.worker_id in bid_by_worker
        )
        task_ids = tuple(t.task_id for t in dataset.tasks)
        task_pos = {t: j for j, t in enumerate(task_ids)}

        result_worker_pos = {w: i for i, w in enumerate(result.worker_ids)}
        result_task_pos = {t: j for j, t in enumerate(result.task_ids)}

        n, m = len(worker_ids), len(task_ids)
        accuracy = np.zeros((n, m), dtype=np.float64)
        prices = np.zeros(n, dtype=np.float64)
        costs = np.zeros(n, dtype=np.float64)
        for i, worker_id in enumerate(worker_ids):
            bid = bid_by_worker[worker_id]
            prices[i] = bid.price
            costs[i] = dataset.worker_by_id[worker_id].cost
            src_row = result_worker_pos.get(worker_id)
            for task_id in bid.task_ids:
                j = task_pos[task_id]
                src_col = result_task_pos.get(task_id)
                if src_row is not None and src_col is not None:
                    accuracy[i, j] = result.accuracy_matrix[src_row, src_col]

        if requirements is None:
            req = np.array([t.requirement for t in dataset.tasks], dtype=np.float64)
        else:
            req = np.array(
                [requirements.get(t.task_id, t.requirement) for t in dataset.tasks],
                dtype=np.float64,
            )
        values = np.array([t.value for t in dataset.tasks], dtype=np.float64)
        return cls(
            worker_ids=worker_ids,
            task_ids=task_ids,
            requirements=req,
            accuracy=accuracy,
            bids=prices,
            costs=costs,
            task_values=values,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def n_workers(self) -> int:
        return len(self.worker_ids)

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def sparse_accuracy(self) -> SparseAccuracy:
        """CSR/CSC index of the non-zero accuracies (built once, cached)."""
        cached = self.__dict__.get("_sparse_accuracy")
        if cached is None:
            cached = SparseAccuracy.from_dense(self.accuracy)
            object.__setattr__(self, "_sparse_accuracy", cached)
        return cached

    def coverage(self, selected: Iterable[int]) -> np.ndarray:
        """Total accuracy ``Σ_{i∈S} A_i^j`` per task for a worker-index set."""
        rows = list(selected)
        if not rows:
            return np.zeros(self.n_tasks, dtype=np.float64)
        return self.accuracy[rows].sum(axis=0)

    def is_covering(self, selected: Iterable[int]) -> bool:
        """Whether a selection satisfies every task's requirement (Eq. 5)."""
        return bool(
            np.all(self.coverage(selected) >= self.requirements - COVERAGE_TOL)
        )

    def uncovered_tasks(self, selected: Iterable[int]) -> tuple[str, ...]:
        """Ids of tasks whose requirement the selection leaves unmet."""
        coverage = self.coverage(selected)
        gaps = coverage < self.requirements - COVERAGE_TOL
        return tuple(self.task_ids[j] for j in np.nonzero(gaps)[0])

    def check_feasible(self) -> None:
        """Raise :class:`InfeasibleCoverageError` if even ``S = W`` cannot cover."""
        missing = self.uncovered_tasks(range(self.n_workers))
        if missing:
            raise InfeasibleCoverageError(missing)

    @property
    def is_feasible(self) -> bool:
        """Whether selecting every worker satisfies all requirements."""
        return not self.uncovered_tasks(range(self.n_workers))

    def social_cost(self, selected: Iterable[int]) -> float:
        """``Σ_{i∈S} c_i`` — the SOAC objective (Eq. 4) for a selection."""
        rows = list(selected)
        return float(self.costs[rows].sum()) if rows else 0.0

    def platform_value(self, selected: Iterable[int]) -> float:
        """``V(S)``: the summed task values if the selection covers all tasks.

        The paper treats ``V(S)`` as constant under the accuracy
        constraint; an uncovering selection earns 0.
        """
        if self.is_covering(selected):
            return float(self.task_values.sum())
        return 0.0

    def with_capped_requirements(self, fraction: float = 0.8) -> "SOACInstance":
        """Cap each ``Θ_j`` at ``fraction`` of the task's total available accuracy.

        Sparse sweep points (few workers) can make the raw ``U[2, 4]``
        requirements uncoverable; the paper does not say how such
        configurations were handled.  Capping keeps every point
        feasible while leaving well-covered tasks untouched (see
        EXPERIMENTS.md).
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError("fraction must be in (0, 1]")
        available = self.accuracy.sum(axis=0)
        capped = np.minimum(self.requirements, fraction * available)
        return SOACInstance(
            worker_ids=self.worker_ids,
            task_ids=self.task_ids,
            requirements=capped,
            accuracy=self.accuracy,
            bids=self.bids,
            costs=self.costs,
            task_values=self.task_values,
        )

    def with_bid(self, worker_index: int, price: float) -> "SOACInstance":
        """Return a copy where one worker declares a different price.

        The true cost vector is unchanged — this is exactly a strategic
        misreport, as used by the truthfulness experiments (Fig. 8).
        """
        bids = self.bids.copy()
        bids[worker_index] = price
        return SOACInstance(
            worker_ids=self.worker_ids,
            task_ids=self.task_ids,
            requirements=self.requirements,
            accuracy=self.accuracy,
            bids=bids,
            costs=self.costs,
            task_values=self.task_values,
        )

    def without_worker(self, worker_index: int) -> "SOACInstance":
        """Return a copy excluding one worker (used by payment logic/tests)."""
        keep = [i for i in range(self.n_workers) if i != worker_index]
        return SOACInstance(
            worker_ids=tuple(self.worker_ids[i] for i in keep),
            task_ids=self.task_ids,
            requirements=self.requirements,
            accuracy=self.accuracy[keep],
            bids=self.bids[keep],
            costs=self.costs[keep],
            task_values=self.task_values,
        )
