"""Synthetic crowdsourcing worlds with independent workers.

:func:`generate_world` builds a seeded :class:`~repro.types.Dataset`
of *independent* workers; :func:`~repro.datasets.copiers.inject_copiers`
then converts a subset into copiers.  Together they parameterize every
experiment in the harness.

Key modelling choices (all configurable through :class:`WorldConfig`):

- **Reliability.** Worker reliabilities are Beta-distributed.  The
  default ``Beta(5.5, 4.5)`` (mean 0.55, clipped to [0.3, 0.9]) was
  calibrated so the paper's precision band (0.82-0.92, Fig. 3) and
  method separation (DATE > NC > MV, Fig. 4) reproduce: workers are
  right more often than chance but individually noisy — the regime
  where accuracy-aware truth discovery beats majority voting without
  trivializing the problem.
- **Participation decay.** The probability a worker answers task ``j``
  decays linearly with the task index.  The paper observes exactly this
  in its data ("tasks with small index are performed by more workers")
  and attributes the declining precision-vs-tasks curve of Fig. 4a to
  it.  Total expected claims are calibrated to ``target_claims``.
- **False values.** An erring worker picks among the task's false
  values uniformly or with a Zipf bias (popular wrong answers), the
  generative counterpart of Sec. IV-B.
- **Auction attributes.** Per-task accuracy requirements ``Θ_j`` and
  platform values ``V_j`` are uniform over configurable ranges
  (paper defaults: ``U[2, 4]`` and ``U[5, 8]``); worker costs come from
  the auction-price sampler.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Any

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, ensure_generator, spawn
from ..types import Dataset, Task, WorkerProfile
from .auction_prices import PalmM515LikeSampler, sample_costs

__all__ = ["WorldConfig", "generate_world"]


@dataclass(frozen=True)
class WorldConfig:
    """Parameters of a synthetic crowdsourcing world (defaults: Sec. VII-A)."""

    n_tasks: int = 300
    n_workers: int = 120
    #: Expected total number of claims across all workers and tasks.
    target_claims: int = 6000
    #: Number of false values per task (``num_j``); the Qatar-Living
    #: analogue uses 2 (domain Good/Bad/Other).
    num_false: int = 2
    #: Shared label set used for every task's domain.  When ``None``,
    #: each task gets its own synthetic labels ``t<j>_v<k>``.
    shared_labels: tuple[str, ...] | None = None
    #: Linear participation decay across the task index: task ``m-1``
    #: is answered at ``(1 - participation_decay)`` times the rate of
    #: task 0.
    participation_decay: float = 0.6
    #: Beta parameters of the reliability distribution (mean a/(a+b)).
    reliability_alpha: float = 5.5
    reliability_beta: float = 4.5
    #: Reliabilities are clipped into this interval so no worker is a
    #: perfect oracle or pure noise.
    reliability_clip: tuple[float, float] = (0.30, 0.90)
    #: How erring workers pick false values: "uniform" or "zipf".
    false_value_style: str = "uniform"
    zipf_exponent: float = 1.2
    #: Per-task accuracy requirement Θ_j ~ U[lo, hi] (paper: [2, 4]).
    requirement_range: tuple[float, float] = (2.0, 4.0)
    #: Per-task platform value V_j ~ U[lo, hi] (paper: [5, 8]).
    value_range: tuple[float, float] = (5.0, 8.0)
    #: Worker cost range after rescaling the auction-price samples.
    cost_range: tuple[float, float] = (1.0, 10.0)
    cost_sampler: PalmM515LikeSampler = field(default_factory=PalmM515LikeSampler)

    def __post_init__(self) -> None:
        if self.n_tasks < 1 or self.n_workers < 1:
            raise ConfigurationError("need at least one task and one worker")
        if self.target_claims < self.n_tasks:
            raise ConfigurationError(
                "target_claims must be at least n_tasks (every task needs "
                "a fighting chance of an answer)"
            )
        if self.num_false < 1:
            raise ConfigurationError("num_false must be >= 1")
        if self.shared_labels is not None and len(self.shared_labels) != (
            self.num_false + 1
        ):
            raise ConfigurationError(
                "shared_labels must contain exactly num_false + 1 labels"
            )
        if not 0.0 <= self.participation_decay < 1.0:
            raise ConfigurationError("participation_decay must be in [0, 1)")
        if self.reliability_alpha <= 0 or self.reliability_beta <= 0:
            raise ConfigurationError("reliability Beta parameters must be positive")
        lo, hi = self.reliability_clip
        if not 0.0 < lo < hi < 1.0:
            raise ConfigurationError("reliability_clip must satisfy 0 < lo < hi < 1")
        if self.false_value_style not in ("uniform", "zipf"):
            raise ConfigurationError(
                f"false_value_style must be 'uniform' or 'zipf', "
                f"got {self.false_value_style!r}"
            )
        if self.zipf_exponent < 0:
            raise ConfigurationError("zipf_exponent must be >= 0")
        for name in ("requirement_range", "value_range", "cost_range"):
            rlo, rhi = getattr(self, name)
            if rlo < 0 or rhi < rlo:
                raise ConfigurationError(f"{name} must satisfy 0 <= lo <= hi")

    def evolve(self, **changes: Any) -> "WorldConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


def _participation_profile(config: WorldConfig) -> np.ndarray:
    """Per-task answer probability, calibrated to the claim budget.

    ``p_j = base · (1 - decay · j/(m-1))``, with ``base`` chosen so the
    expected number of claims over all workers equals ``target_claims``
    (capped at probability 1).
    """
    m = config.n_tasks
    if m == 1:
        shape = np.ones(1)
    else:
        shape = 1.0 - config.participation_decay * (np.arange(m) / (m - 1))
    expected_per_worker = config.target_claims / config.n_workers
    base = expected_per_worker / shape.sum()
    return np.clip(base * shape, 0.0, 1.0)


def _false_value_probabilities(config: WorldConfig) -> np.ndarray:
    """Probability over a task's false values for an erring worker."""
    if config.false_value_style == "uniform":
        return np.full(config.num_false, 1.0 / config.num_false)
    ranks = np.arange(1, config.num_false + 1, dtype=np.float64)
    weights = ranks**-config.zipf_exponent
    return weights / weights.sum()


def _task_domains(config: WorldConfig, rng: np.random.Generator) -> list[Task]:
    """Draw tasks: domain, ground truth, requirement, and value."""
    req_lo, req_hi = config.requirement_range
    val_lo, val_hi = config.value_range
    width = len(str(config.n_tasks - 1))
    tasks = []
    for j in range(config.n_tasks):
        if config.shared_labels is not None:
            domain = tuple(config.shared_labels)
        else:
            domain = tuple(
                f"t{j:0{width}d}_v{k}" for k in range(config.num_false + 1)
            )
        truth = domain[int(rng.integers(len(domain)))]
        tasks.append(
            Task(
                task_id=f"t{j:0{width}d}",
                domain=domain,
                requirement=float(rng.uniform(req_lo, req_hi)),
                value=float(rng.uniform(val_lo, val_hi)),
                truth=truth,
            )
        )
    return tasks


class _BlockDoubles:
    """``take(certain)``: the next ``rng.random()``, served from
    ``rng.random(n)`` blocks, which yield the same doubles.  Exact while
    ``certain`` counts only this draw and those sure to follow before
    ``rng`` draws anything else or the caller stops (DESIGN §3)."""

    def __init__(self, rng: np.random.Generator, below: float | None = None):
        self.rng, self.below, self.values, self.pos = rng, below, [], 0

    def __call__(self, certain: int) -> float:
        if self.pos == len(self.values):
            self._draw(certain)
        self.pos += 1
        return self.values[self.pos - 1]

    def misses(self, certain: int, most: int) -> int:
        """Consume the next doubles while each is at least ``below``, at
        most ``most``, and return how many: a run of steps that each
        draw one double and stop there on a miss.  A double below
        ``below`` stays next."""
        count = 0
        while count < most:
            if self.pos == len(self.values):
                self._draw(certain - count)
            run = min(self.hits[bisect_left(self.hits, self.pos)] - self.pos, most - count)
            self.pos += run
            count += run
            if self.pos < len(self.values):
                break
        return count

    def _draw(self, n: int) -> None:
        block = self.rng.random(n)
        self.values, self.pos = block.tolist(), 0
        if self.below is not None:
            # Positions of the doubles below ``below``, then the end.
            self.hits = np.flatnonzero(block < self.below).tolist() + [n]


def _answer_tables(tasks: Sequence[Task], config: WorldConfig) -> list[tuple]:
    """Per task: the truth, its false values and ``rng.choice(k, p=p[:k])``'s
    CDF over ``config``'s false-value probabilities ``p``, divided by its
    last entry so a slice that does not sum to 1 is normalised.  False
    values keep domain order, so the Zipf bias consistently favors the
    same wrong answer per task — the "everyone thinks it's Sydney" effect."""
    false_probs = _false_value_probabilities(config)
    tables = []
    for task in tasks:
        false_values = [v for v in task.domain if v != task.truth]
        cdf = list(accumulate(false_probs[: len(false_values)].tolist()))
        tables.append((task.truth, false_values, [c / cdf[-1] for c in cdf]))
    return tables


def _independent_answer(table: tuple, reliability: float, take: Callable, certain: int) -> str:
    """The truth w.p. ``reliability``, else ``rng.choice``'s false value."""
    truth, false_values, cdf = table
    if take(certain) < reliability:
        return truth
    return false_values[bisect_right(cdf, take(certain))]


def generate_world(config: WorldConfig | None = None, seed: SeedLike = None) -> Dataset:
    """Generate a seeded world of independent workers.

    The returned dataset carries full generative ground truth (task
    truths, worker reliabilities and costs) for evaluation; estimation
    algorithms never read those fields.
    """
    config = config or WorldConfig()
    rng = ensure_generator(seed)
    task_rng, worker_rng, claim_rng, cost_rng = spawn(rng, 4)

    tasks = _task_domains(config, task_rng)
    participation = _participation_profile(config)
    tables = _answer_tables(tasks, config)

    reliabilities = np.clip(
        worker_rng.beta(
            config.reliability_alpha, config.reliability_beta, size=config.n_workers
        ),
        *config.reliability_clip,
    )
    costs = sample_costs(
        config.n_workers,
        cost_rng,
        cost_range=config.cost_range,
        sampler=config.cost_sampler,
    )

    width = len(str(config.n_workers - 1))
    workers = tuple(
        WorkerProfile(
            worker_id=f"w{i:0{width}d}",
            cost=float(costs[i]),
            reliability=float(reliabilities[i]),
        )
        for i in range(config.n_workers)
    )

    claims: dict[tuple[str, str], str] = {}
    for worker in workers:
        answered = np.flatnonzero(claim_rng.random(config.n_tasks) < participation).tolist()
        take = _BlockDoubles(claim_rng)
        for left, j in zip(range(len(answered), 0, -1), answered):
            claims[(worker.worker_id, tasks[j].task_id)] = _independent_answer(
                tables[j], worker.reliability, take, left
            )
    return Dataset(tasks=tuple(tasks), workers=workers, claims=claims)
