"""DATE — Dependence and Accuracy based Truth Estimation (Alg. 1).

The driver wires the three steps together and iterates until the truth
estimate stabilizes or the iteration cap ``φ`` is reached; every step is
one array kernel of :mod:`repro.core.engine`:

1. :func:`~repro.core.engine.pairwise_dependence_arrays` — copier
   posteriors from the current truths and accuracies (Eqs. 7-15);
2. :func:`~repro.core.engine.independence_flat` — per-claim
   independence scores via the greedy ordering (Eq. 16);
3. :func:`~repro.core.engine.discounted_posterior_groups` /
   :func:`~repro.core.engine.accuracy_flat` — Bayesian value
   posteriors and refreshed accuracies (Eqs. 17-20), then
   :func:`~repro.core.engine.support_flat` — truth selection by the
   largest dependence-discounted support (line 28, optionally
   similarity-adjusted per Eq. 21).

The initial truth estimate is majority voting and the initial accuracy
matrix is the constant ε (Sec. III-A).
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceWarning
from ..obs import trace as obs_trace
from ..obs.metrics import get_registry
from ..types import Dataset
from .accuracy import claim_mean_by_worker
from .config import DateConfig
from .dependence import DependencePosterior
from .engine import (
    DependenceArrays,
    accuracy_flat,
    dense_accuracy,
    dependence_table,
    discounted_posterior_groups,
    independence_flat,
    pairwise_dependence_arrays,
    plain_posterior_groups,
    select_truth_codes,
    support_flat,
    support_table,
)
from .indexing import ClaimArrays, DatasetIndex

__all__ = ["DATE", "TruthDiscoveryResult", "discover_truth", "iterate_truths"]


#: Histogram bounds for iterations-to-convergence (Fibonacci-ish).
_ITERATION_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0)

#: Kernel phases of one vectorized DATE iteration, in execution order.
_PHASES = ("dependence", "independence", "posterior", "support")


class _RunInstruments:
    """The instruments every DATE run records into, bound once per
    registry (:meth:`~repro.obs.metrics.MetricsRegistry.bound`)."""

    def __init__(self, registry):
        self.run_seconds = registry.timer(
            "date_run_seconds", "Wall time of one DATE run."
        )
        self.runs_total = registry.counter("date_runs_total", "DATE runs executed.")
        self.converged_total = registry.counter(
            "date_converged_runs_total",
            "DATE runs whose truth estimate stabilized before the cap.",
        )
        self.iterations_hist = registry.histogram(
            "date_iterations",
            "Iterations to convergence per DATE run.",
            buckets=_ITERATION_BUCKETS,
        )
        self.iteration_seconds = registry.timer(
            "date_iteration_seconds",
            "Wall time of one DATE fixed-point iteration.",
        )
        self.phase_seconds = {
            name: registry.timer(
                "date_phase_seconds",
                "Wall time per kernel phase of a DATE iteration.",
                labels={"phase": name},
            )
            for name in _PHASES
        }
        self.flips_total = registry.counter(
            "date_truth_flips_total",
            "Per-task truth estimate changes across iterations.",
        )
        self.delta_hist = registry.histogram(
            "date_posterior_delta",
            "Max |change| of per-claim accuracy per iteration.",
        )


class _RunTelemetry:
    """Per-run convergence recorder for DATE (DESIGN.md §13).

    Constructed by :func:`_run_telemetry` only when telemetry is live,
    so the disabled hot loop pays a single ``is None`` check per phase.
    Instruments are bound once per registry (:class:`_RunInstruments`)
    — never looked up inside the iteration — and everything recorded
    is *read* from loop state after the kernels have produced it:
    observation cannot perturb the fixed point, which is what keeps
    instrumented runs bit-identical.
    """

    def __init__(self, registry, writer):
        self._writer = writer
        self._iteration = 0
        self._m = registry.bound(_RunInstruments)

    def iteration(
        self,
        *,
        seconds: float,
        phases: dict[str, float],
        flips: int,
        delta: float,
    ) -> None:
        m = self._m
        self._iteration += 1
        m.iteration_seconds.observe(seconds)
        for name, elapsed in phases.items():
            m.phase_seconds[name].observe(elapsed)
        m.flips_total.inc(flips)
        m.delta_hist.observe(delta)
        if self._writer is not None:
            self._writer.emit(
                "date_iteration",
                iteration=self._iteration,
                seconds=round(seconds, 9),
                flips=flips,
                posterior_delta=delta,
                phases={k: round(v, 9) for k, v in phases.items()},
            )

    def finish(self, *, iterations: int, converged: bool, seconds: float) -> None:
        m = self._m
        m.runs_total.inc()
        if converged:
            m.converged_total.inc()
        m.iterations_hist.observe(iterations)
        m.run_seconds.observe(seconds)
        if self._writer is not None:
            self._writer.emit(
                "date_run",
                iterations=iterations,
                converged=converged,
                seconds=round(seconds, 9),
            )


def _run_telemetry() -> _RunTelemetry | None:
    """A bound recorder when telemetry is live, else ``None``.

    The ``None`` return is the entire disabled-mode cost signature of
    the loop.
    """
    registry = get_registry()
    writer = obs_trace.active()
    if not registry.enabled and writer is None:
        return None
    return _RunTelemetry(registry, writer)


def iterate_truths(initial, step, *, max_iterations, state_key, label):
    """Alg. 1's outer loop, shared by DATE and NC.

    Calls ``step(truths) -> new_truths`` until the estimate stabilizes,
    enters a cycle (period >= 2 — keep the current member
    deterministically), or hits the iteration cap ``max_iterations``
    (then warn).  ``state_key`` maps a truth estimate to a hashable
    snapshot (``tuple`` for string lists, ``ndarray.tobytes`` for code
    arrays).  Returns ``(truths, iterations, converged)``.
    """
    truths = initial
    key = state_key(initial)
    seen_states = {key}
    iterations = 0
    converged = False
    cycled = False
    while iterations < max_iterations:
        iterations += 1
        truths = step(truths)
        new_key = state_key(truths)
        if new_key == key:
            converged = True
            break
        key = new_key
        if key in seen_states:
            cycled = True
            break
        seen_states.add(key)
    if not converged and not cycled:
        warnings.warn(
            f"{label} stopped at the iteration cap ({max_iterations}) "
            "without the truth estimate stabilizing",
            ConvergenceWarning,
            # Attribute the warning to the caller of run(), three frames
            # up: iterate_truths -> run -> caller.
            stacklevel=3,
        )
    return truths, iterations, converged


@dataclass(frozen=True, eq=False)
class TruthDiscoveryResult:
    """Output of a truth-discovery run.

    Attributes
    ----------
    truths:
        ``task_id -> estimated truth`` (tasks with no claims omitted).
    accuracy_matrix:
        Dense ``n_workers x n_tasks`` matrix ``A`` (Eq. 17); rows/columns
        follow ``worker_ids`` / ``task_ids``.  This is the matrix the
        reverse auction consumes.
    worker_accuracy:
        ``worker_id -> mean accuracy`` over the worker's answered tasks.
    confidence:
        ``task_id -> posterior probability`` of the selected truth.
    support:
        ``task_id -> {value: support count}`` from the final iteration;
        empty on lean runs.
    dependence:
        ``(worker_id, worker_id') -> DependencePosterior`` for every
        co-answering pair (ids in dataset order, first < second
        positionally), as a read-only ``Mapping``: DATE and ED hand
        out a :class:`~repro.core.engine.DependenceView` over the
        kernel's pair arrays, which iterates in pair order and compares
        equal to a plain dict item by item.  Empty for
        dependence-unaware methods and on lean runs.
    iterations:
        Number of refinement iterations executed.
    converged:
        Whether the truth estimate stabilized before the cap.
    method:
        Human-readable algorithm name ("DATE", "MV", "NC", "ED").
    """

    truths: dict[str, str]
    accuracy_matrix: np.ndarray
    worker_accuracy: dict[str, float]
    confidence: dict[str, float]
    support: dict[str, dict[str, float]]
    dependence: Mapping[tuple[str, str], DependencePosterior]
    iterations: int
    converged: bool
    method: str = "DATE"
    worker_ids: tuple[str, ...] = field(default=())
    task_ids: tuple[str, ...] = field(default=())

    def precision(self, truths: dict[str, str] | None = None) -> float:
        """Fraction of tasks whose estimate matches the reference truth.

        Uses the dataset ground truths captured at run time unless an
        explicit reference is given.  Matches the paper's precision
        metric ``Σ g(et_j = et*_j) / |T|`` over tasks with a known
        reference.
        """
        reference = truths if truths is not None else self._ground_truths
        if not reference:
            raise ValueError("no reference truths available for precision")
        hits = sum(
            1 for task_id, truth in reference.items() if self.truths.get(task_id) == truth
        )
        return hits / len(reference)

    # Populated by the runner; excluded from equality on purpose.
    _ground_truths: dict[str, str] = field(default_factory=dict, compare=False)


class DATE:
    """The paper's truth-discovery algorithm, ready to run on a dataset.

    >>> from repro.datasets import generate_qatar_living_like
    >>> dataset = generate_qatar_living_like(seed=1)
    >>> result = DATE().run(dataset)
    >>> 0.0 <= result.precision() <= 1.0
    True
    """

    method_name = "DATE"

    def __init__(self, config: DateConfig | None = None):
        self.config = config or DateConfig()

    def _independence_flat(
        self,
        index: DatasetIndex,
        arrays: ClaimArrays,
        dependence: DependenceArrays,
    ):
        """Step 2 hook; the ED baseline overrides it with enumeration."""
        return independence_flat(
            arrays,
            dependence,
            copy_prob_r=self.config.copy_prob_r,
            ordering=self.config.ordering,
            discount_mode=self.config.discount_mode,
        )

    def run(
        self,
        dataset: Dataset | None,
        *,
        index: DatasetIndex | None = None,
        lean: bool = False,
    ) -> TruthDiscoveryResult:
        """Execute Alg. 1 and return the full result bundle.

        Runs on ``index`` when given; ``dataset`` is read only to build
        the index otherwise.

        ``lean=True`` is for callers that only consume truths,
        accuracies and confidence: the result's ``support`` and
        ``dependence`` are then left empty.  The estimation itself is
        unchanged.

        Inner-loop state is three flat arrays (per-claim accuracy,
        per-claim independence, per-task truth codes) driven through
        the kernels of :mod:`repro.core.engine`; :func:`build_result`
        assembles the result from them once after convergence.  Each
        dependence pass overwrites the previous iteration's posteriors,
        which Eq. 16 has consumed by then.  An index the run built for
        itself drops its pair tables before the result is assembled; a
        caller's index keeps them for its next run.
        """
        owned = index is None
        index = index or DatasetIndex(dataset)
        cfg = self.config
        arrays = index.arrays
        telemetry = _run_telemetry()
        run_start = time.perf_counter() if telemetry is not None else 0.0
        collision = cfg.false_values.collision_array(index)
        group_q = (
            cfg.false_values.value_probability_array(index)
            if cfg.discounted_posterior
            else None
        )

        truth_codes = arrays.majority_codes()
        claim_acc = np.full(arrays.n_claims, cfg.initial_accuracy, dtype=np.float64)

        dependence = group_post = group_support = None

        def step(truth_codes):
            nonlocal dependence, group_post, group_support, claim_acc
            # Telemetry reads loop state after each kernel; the branches
            # below are the loop's entire disabled-mode cost.
            if telemetry is not None:
                iter_start = mark = time.perf_counter()
                prev_acc = claim_acc
            dependence = pairwise_dependence_arrays(
                arrays,
                truth_codes,
                claim_acc,
                copy_prob_r=cfg.copy_prob_r,
                prior_alpha=cfg.prior_alpha,
                collision=collision,
                accuracy_clamp=cfg.accuracy_clamp,
                out=None if dependence is None else (dependence.p_ab, dependence.p_ba),
            )
            if telemetry is not None:
                now = time.perf_counter()
                t_dependence, mark = now - mark, now
            indep = self._independence_flat(index, arrays, dependence)
            if telemetry is not None:
                now = time.perf_counter()
                t_independence, mark = now - mark, now
            if cfg.discounted_posterior:
                group_post = discounted_posterior_groups(
                    arrays,
                    claim_acc,
                    indep,
                    group_q=group_q,
                    accuracy_clamp=cfg.accuracy_clamp,
                )
            else:
                group_post = plain_posterior_groups(
                    arrays,
                    claim_acc,
                    false_values=cfg.false_values,
                    accuracy_clamp=cfg.accuracy_clamp,
                )
            claim_acc = accuracy_flat(
                arrays, group_post, granularity=cfg.granularity
            )
            if telemetry is not None:
                now = time.perf_counter()
                t_posterior, mark = now - mark, now
            group_support = support_flat(
                arrays,
                claim_acc,
                indep,
                similarity=cfg.similarity,
                similarity_weight=cfg.similarity_weight,
            )
            new_codes = select_truth_codes(arrays, group_support)
            if telemetry is not None:
                now = time.perf_counter()
                telemetry.iteration(
                    seconds=now - iter_start,
                    phases={
                        "dependence": t_dependence,
                        "independence": t_independence,
                        "posterior": t_posterior,
                        "support": now - mark,
                    },
                    flips=int(np.count_nonzero(new_codes != truth_codes)),
                    delta=float(np.abs(claim_acc - prev_acc).max())
                    if len(claim_acc)
                    else 0.0,
                )
            return new_codes

        truth_codes, iterations, converged = iterate_truths(
            truth_codes,
            step,
            max_iterations=cfg.max_iterations,
            state_key=lambda codes: codes.tobytes(),
            label="DATE",
        )
        if telemetry is not None:
            telemetry.finish(
                iterations=iterations,
                converged=converged,
                seconds=time.perf_counter() - run_start,
            )
        if owned:
            arrays.drop_pair_tables()
        return build_result(
            index,
            truth_codes,
            claim_acc,
            group_post,
            group_support,
            dependence,
            iterations=iterations,
            converged=converged,
            method=self.method_name,
            lean=lean,
        )


def build_result(
    index: DatasetIndex,
    truth_codes: np.ndarray,
    claim_acc: np.ndarray,
    group_post: np.ndarray,
    group_support: np.ndarray,
    dependence: DependenceArrays | None = None,
    *,
    iterations: int,
    converged: bool,
    method: str,
    lean: bool = False,
) -> TruthDiscoveryResult:
    """Assemble a :class:`TruthDiscoveryResult` from a run's arrays.

    The one assembler of every zoo member, so every algorithm reports
    the same, directly comparable structure.  ``truth_codes`` holds one
    value code per task (-1 for unanswered tasks), ``claim_acc`` one
    accuracy per claim, ``group_post``/``group_support`` one posterior
    and one support per value group, and ``dependence`` the pair
    posteriors of a dependence-aware member (``None`` otherwise).  Each
    answered task's confidence is its truth's posterior, one gather at
    ``task_group_ptr[j] + code``; ``worker_accuracy`` is each worker's
    mean claim accuracy.  ``lean=True`` leaves ``support`` and
    ``dependence`` empty: no table is built for them.
    """
    arrays = index.arrays
    task_ids, worker_ids = tuple(index.task_ids), tuple(index.worker_ids)
    answered = np.flatnonzero(truth_codes >= 0)
    truth_groups = arrays.task_group_ptr[answered] + truth_codes[answered]
    answered_ids = [task_ids[j] for j in answered.tolist()]
    means = claim_mean_by_worker(arrays, claim_acc)
    support: dict[str, dict[str, float]] = {}
    dependence_map: Mapping[tuple[str, str], DependencePosterior] = {}
    if not lean:
        support = {
            task_ids[j]: counts
            for j, counts in enumerate(support_table(arrays, group_support))
            if counts
        }
        if dependence is not None:
            dependence_map = dependence_table(arrays, dependence).rekeyed(worker_ids)
    return TruthDiscoveryResult(
        truths=dict(zip(answered_ids, arrays.group_values[truth_groups].tolist())),
        accuracy_matrix=dense_accuracy(arrays, claim_acc),
        worker_accuracy=dict(zip(worker_ids, means.tolist())),
        confidence=dict(zip(answered_ids, group_post[truth_groups].tolist())),
        support=support,
        dependence=dependence_map,
        iterations=iterations,
        converged=converged,
        method=method,
        worker_ids=worker_ids,
        task_ids=task_ids,
        _ground_truths={t.task_id: t.truth for t in index.tasks if t.truth is not None},
    )


def discover_truth(
    dataset: Dataset, config: DateConfig | None = None
) -> TruthDiscoveryResult:
    """Convenience wrapper: run DATE with ``config`` on ``dataset``."""
    return DATE(config).run(dataset)
