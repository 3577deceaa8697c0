"""The scalar synthetic-data generator, kept as the byte-identity reference.

:func:`repro.datasets.generate_world` and
:func:`repro.datasets.inject_copiers` draw their doubles in blocks and
pick false values from a precomputed CDF; these are the loops they
replaced, one ``rng.random()`` and one ``rng.choice(k, p=p)`` per draw.
The generator differential pins product == reference byte for byte,
including the state a caller's ``Generator`` is left in.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.datasets.auction_prices import sample_costs
from repro.datasets.synthetic import (
    WorldConfig,
    _false_value_probabilities,
    _participation_profile,
    _task_domains,
)
from repro.errors import ConfigurationError
from repro.rng import SeedLike, ensure_generator, spawn
from repro.types import Dataset, Task, WorkerProfile

__all__ = ["draw_independent_value", "generate_world", "inject_copiers"]


def draw_independent_value(
    task: Task,
    reliability: float,
    rng: np.random.Generator,
    false_probs: np.ndarray,
) -> str:
    """One independent answer: the truth w.p. ``reliability``, else a false value.

    False values are ordered by their position in the task domain
    (truth removed), so the Zipf bias consistently favors the same
    wrong answer per task — the "everyone thinks it's Sydney" effect.
    """
    if rng.random() < reliability:
        return task.truth  # type: ignore[return-value]
    false_values = [v for v in task.domain if v != task.truth]
    pick = int(rng.choice(len(false_values), p=false_probs[: len(false_values)]))
    return false_values[pick]


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
    false_probs = _false_value_probabilities(config)

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
        mask = claim_rng.random(config.n_tasks) < participation
        for j in np.nonzero(mask)[0]:
            task = tasks[j]
            claims[(worker.worker_id, task.task_id)] = draw_independent_value(
                task, worker.reliability, claim_rng, false_probs
            )
    return Dataset(tasks=tuple(tasks), workers=workers, claims=claims)


def inject_copiers(
    dataset: Dataset,
    n_copiers: int,
    *,
    copy_prob: float = 0.8,
    follow_prob: float = 0.9,
    extra_prob: float = 0.05,
    sources_per_copier: int = 1,
    source_pool_size: int | None = None,
    source_selection: str = "uniform",
    copier_ids: Sequence[str] | None = None,
    world_config: WorldConfig | None = None,
    seed: SeedLike = None,
) -> Dataset:
    """Return a copy of ``dataset`` with ``n_copiers`` workers turned into copiers.

    Parameters
    ----------
    copy_prob:
        Probability a copier's answer is copied verbatim from a source
        (the generative counterpart of the paper's ``r``).
    follow_prob:
        Probability the copier answers a task its source answered.
    extra_prob:
        Probability the copier independently answers a task its source
        skipped ("added values" are independent contributions).
    sources_per_copier:
        Number of source workers each copier draws from (the paper
        allows copying "from multiple workers by union").
    source_pool_size:
        When set, all copiers draw their sources from a common random
        pool of this many independent workers, clustering several
        copiers behind the same source — the Table 1 pattern (workers 4
        and 5 both copy worker 3) that makes copiers genuinely damaging
        to vote-based truth discovery.  ``None`` lets every copier pick
        among all independent workers.
    source_selection:
        ``"uniform"`` draws the source pool uniformly;
        ``"low_reliability"`` draws it among the least reliable third of
        independent workers — the Table 1 narrative, where copiers
        replicate a *bad* worker and amplify its errors.  This is what
        makes undiscounted copying actively harmful (and the assumed
        ``r`` matter, Fig. 3b).
    copier_ids:
        Explicit copier ids; randomly drawn when omitted.
    world_config:
        Supplies the false-value style for the copier's independent
        draws; defaults to a uniform style matching the dataset's
        domain sizes.
    seed:
        Randomness for copier choice, source assignment, and answers.
    """
    if n_copiers < 0:
        raise ConfigurationError("n_copiers must be >= 0")
    if not 0.0 <= copy_prob <= 1.0:
        raise ConfigurationError("copy_prob must be in [0, 1]")
    if not 0.0 <= follow_prob <= 1.0:
        raise ConfigurationError("follow_prob must be in [0, 1]")
    if not 0.0 <= extra_prob <= 1.0:
        raise ConfigurationError("extra_prob must be in [0, 1]")
    if sources_per_copier < 1:
        raise ConfigurationError("sources_per_copier must be >= 1")
    if source_pool_size is not None and source_pool_size < 1:
        raise ConfigurationError("source_pool_size must be >= 1 when given")
    if source_selection not in ("uniform", "low_reliability"):
        raise ConfigurationError(
            "source_selection must be 'uniform' or 'low_reliability', "
            f"got {source_selection!r}"
        )
    if n_copiers == 0:
        return dataset

    rng = ensure_generator(seed)
    all_ids = [w.worker_id for w in dataset.workers]
    if copier_ids is None:
        if n_copiers > len(all_ids) - 1:
            raise ConfigurationError(
                "n_copiers must leave at least one independent worker"
            )
        chosen = rng.choice(len(all_ids), size=n_copiers, replace=False)
        copier_set = {all_ids[int(i)] for i in chosen}
    else:
        copier_set = set(copier_ids)
        if len(copier_set) != n_copiers:
            raise ConfigurationError("copier_ids must contain n_copiers distinct ids")
        unknown = copier_set - set(all_ids)
        if unknown:
            raise ConfigurationError(f"unknown copier ids: {sorted(unknown)}")
        if len(copier_set) >= len(all_ids):
            raise ConfigurationError("at least one worker must stay independent")

    independents = [w for w in all_ids if w not in copier_set]
    if source_selection == "low_reliability":
        # Source candidates: the least reliable third of the
        # independents (at least as many as the pool needs).
        by_reliability = sorted(
            independents, key=lambda w: dataset.worker_by_id[w].reliability
        )
        floor = max(len(independents) // 3, source_pool_size or 1, 1)
        independents = sorted(by_reliability[:floor])
    if source_pool_size is not None and source_pool_size < len(independents):
        pool_picks = rng.choice(
            len(independents), size=source_pool_size, replace=False
        )
        independents = sorted(independents[int(i)] for i in pool_picks)
    max_false = max((len(t.domain) - 1 for t in dataset.tasks), default=1)
    if world_config is not None:
        false_probs = _false_value_probabilities(world_config)
    else:
        false_probs = np.full(max(max_false, 1), 1.0 / max(max_false, 1))

    new_claims = dict(dataset.claims)
    new_workers: list[WorkerProfile] = []
    for worker in dataset.workers:
        if worker.worker_id not in copier_set:
            new_workers.append(worker)
            continue
        picks = rng.choice(
            len(independents),
            size=min(sources_per_copier, len(independents)),
            replace=False,
        )
        sources = tuple(sorted(independents[int(i)] for i in picks))
        new_workers.append(
            replace(
                worker,
                is_copier=True,
                sources=sources,
                copy_prob=copy_prob,
            )
        )

        # Drop the worker's previous (independent) claims entirely.
        for task in dataset.tasks:
            new_claims.pop((worker.worker_id, task.task_id), None)

        source_claims: dict[str, list[str]] = {}
        for source_id in sources:
            for task_id, value in dataset.claims_by_worker[source_id].items():
                source_claims.setdefault(task_id, []).append(value)

        for task in dataset.tasks:
            task_id = task.task_id
            if task_id in source_claims:
                if rng.random() >= follow_prob:
                    continue
                if rng.random() < copy_prob:
                    options = source_claims[task_id]
                    value = options[int(rng.integers(len(options)))]
                else:
                    value = draw_independent_value(
                        task, worker.reliability, rng, false_probs
                    )
                new_claims[(worker.worker_id, task_id)] = value
            elif extra_prob > 0.0 and rng.random() < extra_prob:
                new_claims[(worker.worker_id, task_id)] = draw_independent_value(
                    task, worker.reliability, rng, false_probs
                )
    return Dataset(
        tasks=dataset.tasks, workers=tuple(new_workers), claims=new_claims
    )
