"""Copier injection: convert independent workers into copiers.

Implements the evaluation setup of Sec. VII-A ("we randomly selected 30
workers and set them to be copiers — the data of these workers is
copied from the other workers") on top of any existing dataset:

- each designated copier is assigned one or more *source* workers,
  chosen among the non-copiers so the no-loop-dependence assumption of
  Sec. II-B holds by construction;
- the copier's claims are regenerated: for each task its source
  answered, the copier answers with probability ``follow_prob``; the
  answer is the source's value with probability ``copy_prob`` (the
  generative ``r``) and an independent draw from the copier's own
  reliability otherwise — the paper's "copiers may revise some of the
  copied values or add additional values";
- with probability ``extra_prob`` the copier also answers tasks its
  source skipped, purely independently.

Worker profiles in the returned dataset record the copier flag, the
sources, and the copy probability, so evaluation code can measure
copier-detection quality against ground truth.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, ensure_generator
from ..types import Dataset, WorkerProfile
from .synthetic import WorldConfig, _answer_tables, _BlockDoubles, _independent_answer

__all__ = ["inject_copiers"]


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
    world_config = world_config or WorldConfig(num_false=max(max_false, 1))
    tables = _answer_tables(dataset.tasks, world_config)
    task_pos = {task.task_id: j for j, task in enumerate(dataset.tasks)}

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
        for task_id in dataset.claims_by_worker[worker.worker_id]:
            del new_claims[(worker.worker_id, task_id)]

        source_claims: dict[str, list[str]] = {}
        for source_id in sources:
            for task_id, value in dataset.claims_by_worker[source_id].items():
                source_claims.setdefault(task_id, []).append(value)

        # One step per task that draws: a source answered it, or extra
        # answers are on.  Blocks of doubles end before a step with several
        # source options, which may draw an integer; its own draws are single.
        sourced = sorted(map(task_pos.get, source_claims))
        steps = range(len(tables)) if extra_prob else sourced
        multi = {task_pos[t] for t, options in source_claims.items() if len(options) > 1}
        stops = [i for i, j in enumerate(steps) if j in multi] if multi else []
        at, ends = np.arange(len(steps)), np.array(stops + [len(steps)])
        lefts = np.maximum(ends[ends.searchsorted(at)] - at, 1).tolist()
        # The steps up to the next sourced one: each draws one double
        # until an extra answer, so a run of misses is resolved at once.
        sourced_at = np.array(sourced if extra_prob else at, dtype=np.int64)
        runs = (np.append(sourced_at, len(steps))[sourced_at.searchsorted(at)] - at).tolist()
        take = _BlockDoubles(rng, below=extra_prob)
        i = 0
        while i < len(steps):
            if runs[i]:
                end = i + runs[i]
                i += take.misses(lefts[i], runs[i])
                if i == end:
                    continue
            j, left = steps[i], lefts[i]
            i += 1
            task_id, table = dataset.tasks[j].task_id, tables[j]
            options = source_claims.get(task_id)
            if options is not None:
                if take(left) >= follow_prob:
                    continue
                if take(left) < copy_prob:
                    value = options[int(rng.integers(len(options)))]
                else:
                    value = _independent_answer(
                        table, worker.reliability, take, left
                    )
                new_claims[(worker.worker_id, task_id)] = value
            elif take(left) < extra_prob:
                new_claims[(worker.worker_id, task_id)] = _independent_answer(
                    table, worker.reliability, take, left
                )
    return Dataset(
        tasks=dataset.tasks, workers=tuple(new_workers), claims=new_claims
    )
