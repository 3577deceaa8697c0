"""Core data model: tasks, workers, claims, bids, and datasets.

The vocabulary follows the paper (Sec. II):

- a :class:`Task` is a question ``t_j`` with an accuracy requirement
  ``Θ_j`` (the least confidence needed to discover its truth) and a
  platform value ``V_j``;
- a :class:`WorkerProfile` describes worker ``i``: private cost ``c_i``
  and — for synthetic data only — the generative ground truth about the
  worker (reliability, whether it is a copier, and its copy sources);
- a *claim* is the single value worker ``i`` submitted for task ``t_j``;
- a :class:`Bid` is the triple ``B_i = (T_i, b_i, D_i)`` a worker
  submits to the reverse auction (its data ``D_i`` lives in the shared
  :class:`Dataset`);
- a :class:`Dataset` bundles tasks, workers and claims, validates them,
  and exposes the derived views (claims by task / by worker) that the
  algorithms consume.

Ground-truth fields (``Task.truth``, ``WorkerProfile.reliability`` …)
exist for data generation and evaluation only; no algorithm in
:mod:`repro.core` or :mod:`repro.auction` reads them.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Container, Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType

from .errors import ConfigurationError, DataFormatError

__all__ = ["Task", "WorkerProfile", "Bid", "Dataset", "check_integrity"]


@dataclass(frozen=True, slots=True)
class Task:
    """A crowdsourcing task ``t_j``.

    Parameters
    ----------
    task_id:
        Unique identifier.
    domain:
        The admissible answer values.  An empty tuple means an *open*
        domain: any string claim is accepted and the number of false
        values is inferred from the data.  When ``truth`` is set and the
        domain is closed, the truth must be a member of the domain.
    requirement:
        Accuracy requirement ``Θ_j`` — the summed worker accuracy the
        auction must cover for this task (Eq. 5).
    value:
        The platform's value ``V_j`` for completing this task; only the
        platform-utility accounting reads it.
    truth:
        Ground-truth answer, if known.  Used by precision metrics and by
        synthetic generators; never by the estimation algorithms.
    """

    task_id: str
    domain: tuple[str, ...] = ()
    requirement: float = 1.0
    value: float = 0.0
    truth: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.task_id, str) or not self.task_id:
            raise DataFormatError("task_id must be a non-empty string")
        if len(set(self.domain)) != len(self.domain):
            raise DataFormatError(f"task {self.task_id}: duplicate domain values")
        if not (math.isfinite(self.requirement) and self.requirement >= 0):
            raise ConfigurationError(
                f"task {self.task_id}: requirement must be finite and >= 0, "
                f"got {self.requirement}"
            )
        if self.domain and self.truth is not None and self.truth not in self.domain:
            raise DataFormatError(
                f"task {self.task_id}: truth {self.truth!r} not in domain"
            )

    @property
    def num_false(self) -> int:
        """``num_j`` — the number of false values in a closed domain.

        Open-domain tasks return 0 here; the dataset index substitutes
        the observed count (see ``DatasetIndex.num_false``).
        """
        return max(len(self.domain) - 1, 0)

    def with_requirement(self, requirement: float) -> "Task":
        """Return a copy of the task with a different ``Θ_j``."""
        return replace(self, requirement=requirement)


@dataclass(frozen=True, slots=True)
class WorkerProfile:
    """A worker ``i`` with its private cost and generative ground truth.

    ``reliability``, ``is_copier``, ``sources`` and ``copy_prob``
    describe how synthetic data was generated; the estimation algorithms
    must infer these quantities, never read them.
    """

    worker_id: str
    cost: float = 1.0
    reliability: float = 0.7
    is_copier: bool = False
    sources: tuple[str, ...] = ()
    copy_prob: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.worker_id, str) or not self.worker_id:
            raise DataFormatError("worker_id must be a non-empty string")
        if not (math.isfinite(self.cost) and self.cost >= 0):
            raise ConfigurationError(
                f"worker {self.worker_id}: cost must be finite and >= 0, got {self.cost}"
            )
        if not 0.0 <= self.reliability <= 1.0:
            raise ConfigurationError(
                f"worker {self.worker_id}: reliability must be in [0, 1]"
            )
        if not 0.0 <= self.copy_prob <= 1.0:
            raise ConfigurationError(
                f"worker {self.worker_id}: copy_prob must be in [0, 1]"
            )
        if self.is_copier and not self.sources:
            raise ConfigurationError(
                f"worker {self.worker_id}: a copier must declare at least one source"
            )
        if self.worker_id in self.sources:
            raise ConfigurationError(
                f"worker {self.worker_id}: a worker cannot copy from itself"
            )

    def with_cost(self, cost: float) -> "WorkerProfile":
        """Return a copy of the profile with a different private cost."""
        return replace(self, cost=cost)

    def within(self, worker_ids: Container[str]) -> "WorkerProfile":
        """This profile with copy sources outside ``worker_ids`` dropped.

        A copier left without sources becomes independent, so the
        profile stays valid in a sub-campaign of those workers.
        """
        sources = tuple(s for s in self.sources if s in worker_ids)
        if sources == self.sources:
            return self
        if self.is_copier and not sources:
            return replace(self, is_copier=False, sources=(), copy_prob=0.0)
        return replace(self, sources=sources)


@dataclass(frozen=True, slots=True)
class Bid:
    """A sealed bid ``B_i = (T_i, b_i)``; the data ``D_i`` lives in the dataset."""

    worker_id: str
    task_ids: frozenset[str]
    price: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.price) and self.price >= 0):
            raise ConfigurationError(
                f"bid of worker {self.worker_id}: price must be finite and >= 0, "
                f"got {self.price}"
            )
        if not self.task_ids:
            raise ConfigurationError(
                f"bid of worker {self.worker_id}: task set must be non-empty"
            )


@dataclass(frozen=True)
class Dataset:
    """An immutable snapshot of a crowdsourcing campaign.

    Parameters
    ----------
    tasks:
        The published task set ``T`` (order defines task index order).
    workers:
        The worker set ``W``.
    claims:
        Mapping ``(worker_id, task_id) -> value``: the data ``D``
        submitted by all workers.  Each worker submits at most one value
        per task.

    The constructor checks the campaign with :func:`check_integrity`
    (unique ids, known copy sources and claim references, admissible
    values), and the derived per-task / per-worker views are cached.
    """

    tasks: tuple[Task, ...]
    workers: tuple[WorkerProfile, ...]
    claims: Mapping[tuple[str, str], str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "workers", tuple(self.workers))
        object.__setattr__(self, "claims", dict(self.claims))
        check_integrity(self.tasks, self.workers, self.claims)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @cached_property
    def task_by_id(self) -> dict[str, Task]:
        """Task lookup by id."""
        return {t.task_id: t for t in self.tasks}

    @cached_property
    def worker_by_id(self) -> dict[str, WorkerProfile]:
        """Worker lookup by id."""
        return {w.worker_id: w for w in self.workers}

    @cached_property
    def claims_by_task(self) -> dict[str, dict[str, str]]:
        """``task_id -> {worker_id: value}`` for every task (empty dict if none)."""
        view: dict[str, dict[str, str]] = {t.task_id: {} for t in self.tasks}
        for (worker_id, task_id), value in self.claims.items():
            view[task_id][worker_id] = value
        return view

    @cached_property
    def claims_by_worker(self) -> dict[str, dict[str, str]]:
        """``worker_id -> {task_id: value}`` for every worker (empty dict if none)."""
        view: dict[str, dict[str, str]] = {w.worker_id: {} for w in self.workers}
        for (worker_id, task_id), value in self.claims.items():
            view[worker_id][task_id] = value
        return view

    def value_groups(self, task_id: str) -> dict[str, frozenset[str]]:
        """``value -> workers claiming it`` for one task (``W_v^j`` in the paper)."""
        groups: dict[str, set[str]] = {}
        for worker_id, value in self.claims_by_task[task_id].items():
            groups.setdefault(value, set()).add(worker_id)
        return {value: frozenset(ws) for value, ws in groups.items()}

    @property
    def n_tasks(self) -> int:
        """``m`` — number of tasks."""
        return len(self.tasks)

    @property
    def n_workers(self) -> int:
        """``n`` — number of workers."""
        return len(self.workers)

    @property
    def n_claims(self) -> int:
        """Total number of (worker, task) claims."""
        return len(self.claims)

    @cached_property
    def truths(self) -> dict[str, str]:
        """Ground truths for the tasks that declare one (evaluation only)."""
        return {t.task_id: t.truth for t in self.tasks if t.truth is not None}

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def subset(
        self,
        task_ids: Iterable[str] | None = None,
        worker_ids: Iterable[str] | None = None,
    ) -> "Dataset":
        """Restrict the dataset to the given tasks and/or workers.

        Used by the parameter sweeps (for example Fig. 4 grows the task
        count by taking prefixes of the full dataset).  Copy sources that
        fall outside the kept worker set are dropped from the profiles so
        the subset remains self-consistent.
        """
        keep_tasks = set(task_ids) if task_ids is not None else {
            t.task_id for t in self.tasks
        }
        keep_workers = set(worker_ids) if worker_ids is not None else {
            w.worker_id for w in self.workers
        }
        unknown_tasks = keep_tasks - {t.task_id for t in self.tasks}
        if unknown_tasks:
            raise DataFormatError(f"subset references unknown tasks: {unknown_tasks}")
        unknown_workers = keep_workers - {w.worker_id for w in self.workers}
        if unknown_workers:
            raise DataFormatError(
                f"subset references unknown workers: {unknown_workers}"
            )
        tasks = tuple(t for t in self.tasks if t.task_id in keep_tasks)
        workers = [
            worker.within(keep_workers)
            for worker in self.workers
            if worker.worker_id in keep_workers
        ]
        claims = {
            (w, t): v
            for (w, t), v in self.claims.items()
            if w in keep_workers and t in keep_tasks
        }
        return Dataset(tasks=tasks, workers=tuple(workers), claims=claims)

    def with_claims(self, claims: Mapping[tuple[str, str], str]) -> "Dataset":
        """Return a copy of the dataset with a replaced claim matrix."""
        return Dataset(tasks=self.tasks, workers=self.workers, claims=claims)

    def bids(self, prices: Mapping[str, float] | None = None) -> list[Bid]:
        """Build the sealed-bid profile ``B``.

        Each worker bids for exactly the tasks it submitted data for.
        ``prices`` overrides individual bid prices; by default workers
        bid their true private cost (the truthful strategy, which the
        mechanism analysis shows is dominant).  Workers with no claims
        submit no bid.
        """
        prices = dict(prices or {})
        bids = []
        for worker in self.workers:
            answered = self.claims_by_worker[worker.worker_id]
            if not answered:
                continue
            price = prices.get(worker.worker_id, worker.cost)
            bids.append(
                Bid(
                    worker_id=worker.worker_id,
                    task_ids=frozenset(answered),
                    price=price,
                )
            )
        return bids


def check_integrity(
    tasks: Iterable[Task],
    workers: Iterable[WorkerProfile],
    claims: Mapping[tuple[str, str], str],
    *,
    known_tasks: Sequence[Task] = (),
    task_pos: Mapping[str, int] = MappingProxyType({}),
    known_workers: Container[str] = (),
    answered: Callable[[Mapping], Collection[tuple[str, str]]] = lambda claims: (),
) -> None:
    """Raise :class:`~repro.errors.DataFormatError` at the first rule that
    ``tasks``, ``workers`` and ``claims``, added to a valid campaign, break.

    A campaign's integrity rules, written once: :class:`Dataset` checks
    against an empty campaign, ``DatasetIndex.validate_extension`` against
    its index (``known_tasks`` at ``task_pos``, ``known_workers``, and
    ``answered``, the keys of ``claims`` the campaign holds).  Ids are
    unique; copy sources are known; a claim key is a pair naming a known
    worker and task (ids are non-empty strings, as :class:`Task` and
    :class:`WorkerProfile` check), its value is a non-empty string inside
    any closed domain, and its worker has not answered the task.
    """
    domains: dict[str, frozenset[str]] = {}
    for task in tasks:
        if task.task_id in domains or task.task_id in task_pos:
            raise DataFormatError(f"duplicate task id {task.task_id!r}")
        domains[task.task_id] = frozenset(task.domain)
    workers = tuple(workers)
    worker_ids: set[str] = set()
    for worker in workers:
        if worker.worker_id in worker_ids or worker.worker_id in known_workers:
            raise DataFormatError(f"duplicate worker id {worker.worker_id!r}")
        worker_ids.add(worker.worker_id)
    for worker in workers:
        for source in worker.sources:
            if source not in worker_ids and source not in known_workers:
                raise DataFormatError(
                    f"worker {worker.worker_id} copies from unknown worker {source!r}"
                )
    for key, value in claims.items():
        match key:  # a sequence pattern matches no str: "wt" is not ("w", "t")
            case (worker_id, task_id):
                pass
            case _:
                raise DataFormatError(f"claim key {key!r} is not a (worker_id, task_id) pair")
        if worker_id not in worker_ids and worker_id not in known_workers:
            raise DataFormatError(f"claim references unknown worker {worker_id!r}")
        try:
            domain = domains[task_id]
        except KeyError:  # a task of the campaign: its domain is read once
            if task_id not in task_pos:
                raise DataFormatError(f"claim references unknown task {task_id!r}") from None
            domain = domains[task_id] = frozenset(known_tasks[task_pos[task_id]].domain)
        if not isinstance(value, str) or not value:
            raise DataFormatError(
                f"claim ({worker_id}, {task_id}): value must be a non-empty string"
            )
        if domain and value not in domain:
            raise DataFormatError(
                f"claim ({worker_id}, {task_id}): value {value!r} "
                "not in the task's closed domain"
            )
    repeated = answered(claims)
    if repeated:
        worker_id, task_id = next(key for key in claims if key in repeated)
        raise DataFormatError(f"duplicate claim: worker {worker_id!r} already answered task {task_id!r}")
