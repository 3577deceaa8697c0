"""The synthetic generator is byte-identical to its scalar reference.

:func:`repro.datasets.generate_world` and
:func:`repro.datasets.inject_copiers` serve their doubles from
``rng.random(n)`` blocks and pick false values by bisecting a
precomputed CDF; :mod:`tests.oracles.datasets` keeps the loops they
replaced (one ``rng.random()`` and one ``rng.choice(k, p=p)`` per draw).
Every dataset must match the reference's ``repr`` exactly, claim order
included, and a caller's ``Generator`` must end in the reference's state.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.datasets import WorldConfig, generate_world, inject_copiers
from repro.types import Dataset, Task, WorkerProfile

from tests.oracles import datasets as reference


def dump(dataset: Dataset) -> str:
    return repr((dataset.tasks, dataset.workers, list(dataset.claims.items())))


def world_config(style: str, labels: bool, num_false: int = 3) -> WorldConfig:
    return WorldConfig(
        n_tasks=40,
        n_workers=24,
        target_claims=360,
        num_false=num_false,
        shared_labels=tuple(f"L{k}" for k in range(num_false + 1)) if labels else None,
        false_value_style=style,
    )


WORLDS = list(itertools.product(["uniform", "zipf"], [True, False]))


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("num_false", [1, 2, 5])
@pytest.mark.parametrize("style, labels", WORLDS)
def test_generate_world_matches_reference(seed, num_false, style, labels):
    config = world_config(style, labels, num_false)
    assert dump(generate_world(config, seed)) == dump(
        reference.generate_world(config, seed)
    )


COPIER_GRID = list(
    itertools.product(
        [1, 2, 3],  # sources_per_copier
        [None, 3],  # source_pool_size
        ["uniform", "low_reliability"],  # source_selection
        [0.0, 0.05, 0.5],  # extra_prob
    )
)


@pytest.mark.parametrize("style, labels", WORLDS)
@pytest.mark.parametrize("seed", [1, 42])
def test_inject_copiers_matches_reference(style, labels, seed):
    config = world_config(style, labels)
    world = generate_world(config, seed)
    for spc, pool, selection, extra in COPIER_GRID:
        for passed_config in (config, None):
            kwargs = dict(
                sources_per_copier=spc,
                source_pool_size=pool,
                source_selection=selection,
                extra_prob=extra,
                world_config=passed_config,
            )
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = inject_copiers(world, 6, seed=rng, **kwargs)
            want = reference.inject_copiers(world, 6, seed=reference_rng, **kwargs)
            assert dump(got) == dump(want), kwargs
            assert rng.bit_generator.state == reference_rng.bit_generator.state, kwargs


@pytest.mark.parametrize("spc", [1, 3])
def test_explicit_copier_ids_match_reference(spc):
    config = world_config("zipf", False)
    world = generate_world(config, 3)
    ids = ["w03", "w11", "w17", "w20"]
    for extra in (0.0, 0.5):
        rng, reference_rng = np.random.default_rng(9), np.random.default_rng(9)
        kwargs = dict(copier_ids=ids, sources_per_copier=spc, extra_prob=extra)
        got = inject_copiers(world, len(ids), seed=rng, **kwargs)
        want = reference.inject_copiers(world, len(ids), seed=reference_rng, **kwargs)
        assert dump(got) == dump(want)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def mixed_domain_dataset() -> Dataset:
    """40 tasks with 3 or 6 labels, 12 unreliable workers answering all."""
    rng = np.random.default_rng(5)
    tasks = tuple(
        Task(
            task_id=f"t{j:02d}",
            domain=tuple(f"t{j:02d}_v{k}" for k in range(3 if j % 2 else 6)),
            truth=f"t{j:02d}_v0",
        )
        for j in range(40)
    )
    workers = tuple(
        WorkerProfile(worker_id=f"w{i:02d}", reliability=0.3) for i in range(12)
    )
    claims = {
        (worker.worker_id, task.task_id): task.domain[int(rng.integers(len(task.domain)))]
        for worker in workers
        for task in tasks
        if rng.random() < 0.6
    }
    return Dataset(tasks=tasks, workers=workers, claims=claims)


def test_mixed_domain_sizes_draw_within_each_domain():
    # Without a world config the uniform false-value probabilities are
    # sized to the widest domain; the reference's rng.choice rejects the
    # 3-label tasks' slice because it does not sum to 1.
    dataset = mixed_domain_dataset()
    kwargs = dict(copy_prob=0.5, extra_prob=0.5)
    with pytest.raises(ValueError, match="sum to 1"):
        reference.inject_copiers(dataset, 4, seed=2, **kwargs)
    injected = inject_copiers(dataset, 4, seed=2, **kwargs)
    copiers = {w.worker_id for w in injected.workers if w.is_copier}
    assert len(copiers) == 4
    drawn: dict[int, set[str]] = {3: set(), 6: set()}
    for (worker_id, task_id), value in injected.claims.items():
        domain = injected.task_by_id[task_id].domain
        assert value in domain
        if worker_id in copiers:
            drawn[len(domain)].add(value.rsplit("_", 1)[1])
    # Independent draws reach every false value of both domain sizes.
    assert drawn[3] == {"v0", "v1", "v2"}
    assert drawn[6] == {f"v{k}" for k in range(6)}
