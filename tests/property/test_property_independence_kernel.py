"""Differential suite: the compiled Eq. 16 kernel against numpy, byte for byte.

:func:`repro.core.engine.independence_flat` runs the greedy ordering in
C (``independence.c``); :func:`tests.oracles.batched_independence_flat`
is the batched numpy kernel it replaced.  Every output here must be
byte-identical to the oracle's: both orderings and both discount modes,
group sizes on each side of numpy's pairwise-summation thresholds (below
8, up to 128, above 128), exact ties in the totals and in the
attachments, non-finite dependence, and campaigns with no
multi-provider group at all.  Two process-level tests build the kernel
library from an empty cache in two spawn processes at once, and check
that a missing C compiler is an ImportError that says so.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, Task, WorkerProfile
from repro.core import DatasetIndex
from repro.core.engine import DependenceArrays, independence_flat

from tests.oracles import batched_independence_flat

ORDERINGS = ("dependent_first", "independent_first")
MODES = ("directed", "total")

#: Dependence palettes: "levels" and "constant" force exact ties in the
#: totals and the attachments; "rounding" mixes 1.0 with values below
#: its last bit, so the first pick depends on the order the totals are
#: summed in; "special" adds signed zeros, infinities and NaN; with
#: "neg_inf" whole groups attach at -inf, where numpy's masked argmax
#: falls back to member 0.
PALETTES = ("uniform", "levels", "constant", "rounding", "special", "neg_inf")


def campaign(groups_per_task: list[list[int]]) -> DatasetIndex:
    """One task per entry; each entry lists its value groups' sizes.

    Group members are disjoint runs of a worker pool, so every group
    of a task is a distinct value and every member pair co-answers.
    """
    n_workers = max([sum(sizes) for sizes in groups_per_task] + [1])
    workers = tuple(WorkerProfile(worker_id=f"w{i:03d}") for i in range(n_workers))
    tasks, claims = [], {}
    for j, sizes in enumerate(groups_per_task):
        domain = tuple(f"v{g}" for g in range(max(len(sizes), 1)))
        tasks.append(Task(task_id=f"t{j}", domain=domain))
        start = (7 * j) % n_workers
        members = np.roll(np.arange(n_workers), -start)
        offset = 0
        for g, size in enumerate(sizes):
            for i in members[offset : offset + size].tolist():
                claims[(f"w{i:03d}", f"t{j}")] = f"v{g}"
            offset += size
    return DatasetIndex(Dataset(tasks=tuple(tasks), workers=workers, claims=claims))


def dependence(n_pairs: int, palette: str, seed: int) -> DependenceArrays:
    rng = np.random.default_rng(seed)
    if palette == "uniform":
        draw = rng.random((2, n_pairs))
    elif palette == "levels":
        draw = rng.choice([0.0, 0.125, 0.25, 0.5], size=(2, n_pairs))
    elif palette == "constant":
        draw = np.full((2, n_pairs), rng.choice([0.0, 0.3]))
    elif palette == "rounding":
        draw = rng.choice([1.0, 2.0**-53, 2.0**-52, 3 * 2.0**-53], size=(2, n_pairs))
    elif palette == "neg_inf":
        draw = rng.choice([-np.inf, 0.5], size=(2, n_pairs), p=[0.9, 0.1])
    else:
        special = [0.0, -0.0, 0.25, 0.5, 1.0, np.inf, -np.inf, np.nan]
        weights = [0.3, 0.1, 0.2, 0.2, 0.1, 0.04, 0.04, 0.02]
        draw = rng.choice(special, size=(2, n_pairs), p=weights)
    return DependenceArrays(p_ab=draw[0], p_ba=draw[1])


def assert_kernels_agree(index: DatasetIndex, dep: DependenceArrays, r: float) -> None:
    arrays = index.arrays
    with np.errstate(invalid="ignore", over="ignore"):
        for ordering in ORDERINGS:
            for mode in MODES:
                compiled = independence_flat(
                    arrays, dep, copy_prob_r=r, ordering=ordering, discount_mode=mode
                )
                oracle = batched_independence_flat(
                    arrays, dep, copy_prob_r=r, ordering=ordering, discount_mode=mode
                )
                assert compiled.tobytes() == oracle.tobytes(), (ordering, mode)


group_size = st.one_of(st.integers(1, 7), st.integers(8, 40), st.integers(41, 128))


@settings(max_examples=60)
@given(
    groups=st.lists(st.lists(group_size, min_size=1, max_size=3), min_size=1, max_size=4),
    palette=st.sampled_from(PALETTES),
    seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from([0.05, 0.4, 0.8, 0.999]),
)
def test_compiled_kernel_matches_numpy(groups, palette, seed, r):
    index = campaign(groups)
    assert_kernels_agree(index, dependence(index.arrays.n_pairs, palette, seed), r)


@pytest.mark.parametrize("palette", PALETTES)
@pytest.mark.parametrize("size", [129, 200, 300])
def test_groups_above_the_pairwise_block(size, palette):
    # Row totals above 128 members take numpy's recursive split.
    index = campaign([[size, 3], [2, 9]])
    assert_kernels_agree(index, dependence(index.arrays.n_pairs, palette, size), 0.4)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rounding_sensitive_totals_across_the_block(seed):
    # One group of every 4th size from 8 to 128: the eight-accumulator
    # block sum, its combination order and the sequential tail.
    index = campaign([[size] for size in range(8, 129, 4)])
    assert_kernels_agree(index, dependence(index.arrays.n_pairs, "rounding", seed), 0.4)


def test_split_point_above_the_block_decides_the_first_pick():
    # In a group of 200, member 1's total is 1.5 + 2**-52 only when its
    # row is split at numpy's 96 (the two 2**-53 entries at 97 and 98
    # are summed together, then added); split anywhere else they round
    # away, member 1 ties member 0 at 1.5, and member 0 would go first.
    index = campaign([[200]])
    arrays = index.arrays
    pair = {(a, b): k for k, (a, b) in enumerate(zip(arrays.pair_a, arrays.pair_b))}
    p_ab = np.zeros(arrays.n_pairs)
    p_ba = np.zeros(arrays.n_pairs)
    p_ba[pair[0, 1]] = 0.5  # P(1 -> 0)
    p_ab[pair[0, 150]] = 1.0  # P(0 -> 150)
    p_ba[pair[1, 90]] = 1.0  # P(90 -> 1)
    p_ab[pair[1, 97]] = p_ab[pair[1, 98]] = 2.0**-53  # P(1 -> 97), P(1 -> 98)
    dep = DependenceArrays(p_ab=p_ab, p_ba=p_ba)
    assert_kernels_agree(index, dep, 0.4)
    indep = independence_flat(arrays, dep, copy_prob_r=0.4)
    member_1 = int(arrays.group_ptr[0]) + 1
    assert indep[member_1] == 1.0  # member 1 has no predecessor


@pytest.mark.parametrize("groups", [[[1, 1, 1], [1]], [[1]], []])
def test_no_multi_provider_groups(groups):
    index = campaign(groups)
    assert index.arrays.multi_group_buckets == []
    dep = dependence(index.arrays.n_pairs, "uniform", 0)
    assert_kernels_agree(index, dep, 0.4)
    assert independence_flat(index.arrays, dep, copy_prob_r=0.4).tolist() == [1.0] * (
        index.arrays.n_claims
    )


def test_mismatched_dependence_rejected():
    index = campaign([[3]])
    dep = DependenceArrays(p_ab=np.zeros(2), p_ba=np.zeros(2))
    with pytest.raises(ValueError, match="pairs"):
        independence_flat(index.arrays, dep, copy_prob_r=0.4)


SPAWN_GROUPS = [[5, 3], [12, 1], [40]]


def _spawned_kernel(results) -> None:
    """Run in a fresh spawn process: build (or load) the kernel, use it."""
    index = campaign(SPAWN_GROUPS)
    dep = dependence(index.arrays.n_pairs, "uniform", 5)
    indep = independence_flat(index.arrays, dep, copy_prob_r=0.4)
    results.put((os.environ["XDG_CACHE_HOME"], indep.tobytes()))


def test_concurrent_cold_builds_share_one_cache_file(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    context = multiprocessing.get_context("spawn")
    results = context.Queue()
    children = [
        context.Process(target=_spawned_kernel, args=(results,)) for _ in range(2)
    ]
    for child in children:
        child.start()
    (home_a, bytes_a), (home_b, bytes_b) = [results.get(timeout=300) for _ in children]
    for child in children:
        child.join(timeout=60)
        assert child.exitcode == 0
    assert home_a == home_b == str(tmp_path)
    index = campaign(SPAWN_GROUPS)
    dep = dependence(index.arrays.n_pairs, "uniform", 5)
    expected = independence_flat(index.arrays, dep, copy_prob_r=0.4).tobytes()
    assert bytes_a == bytes_b == expected
    # Both builds renamed the same library into place; no temp is left.
    (cached,) = (tmp_path / "repro").iterdir()
    assert cached.name.startswith("kernels-") and cached.suffix == ".so"


def test_missing_compiler_is_a_named_import_error(tmp_path):
    env = {
        "PATH": str(tmp_path),  # no cc, gcc or clang here
        "XDG_CACHE_HOME": str(tmp_path / "cache"),
        "PYTHONPATH": os.pathsep.join(sys.path),
    }
    run = subprocess.run(
        [sys.executable, "-c", "import repro.core.engine"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode != 0
    assert (
        "ImportError: repro builds its DATE kernels (Eqs. 7-13 and 16) with a C compiler"
        in run.stderr
    )
    assert "cc, gcc, clang" in run.stderr
