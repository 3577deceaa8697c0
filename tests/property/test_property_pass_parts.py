"""Property tests: cutting the dependence and Eq. 16 passes changes no bit.

:func:`repro.core.engine.pairwise_dependence_arrays` cuts the pair rows
into parts (one per CPU) and each part into blocks, every cut on a pair
boundary; :func:`repro.core.engine.independence_flat` splits each
bucket's value groups between the parts.  The private constants that
fix the part count, the block size and the two thresholds are forced
here, so every campaign runs in 1, 2 and 3 parts with blocks of one
row up, on the module pool.  Pinned, bit for bit:

- **One part** — every cut equals the one-part, one-block pass;
- **Oracles** — the dependence pass equals the classwise numpy scorer
  (:func:`tests.oracles.classwise_score_pair_rows`) summed by
  ``np.bincount`` and normalized, and the Eq. 16 pass equals
  :func:`tests.oracles.batched_independence_flat`, in both orderings
  and both discount modes.

The corpus holds pairs with more rows than a block, parts that get no
pair or no group, single-pair campaigns, campaigns without pairs and
campaigns without a multi-provider group.  The pool tests pin that a
pass below the thresholds never creates it, that concurrent callers
sharing it each get their own one-part bits, and that a forked child
runs its parts on a pool of its own.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine
from repro import DATE, Dataset, Task, WorkerProfile
from repro.core import DatasetIndex
from repro.core.engine import (
    _dependence_posteriors,
    independence_flat,
    pairwise_dependence_arrays,
)
from repro.core.falsedist import UniformFalseValues, ZipfFalseValues

from tests.oracles import batched_independence_flat, classwise_score_pair_rows

VALUES = ("A", "B", "C", "D")
ORDERINGS = ("dependent_first", "independent_first")
MODES = ("directed", "total")
#: (parts, block rows): every cut the suite forces.
CUTS = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 7), (3, 1), (3, 4), (3, 64)]


@contextlib.contextmanager
def forced(parts: int, block_rows: int):
    """Run passes in ``parts`` parts of ``block_rows``-row blocks, at any size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_PARTS", parts)
        patch.setattr(engine, "_BLOCK_ROWS", block_rows)
        patch.setattr(engine, "_PART_MIN_ROWS", 0)
        patch.setattr(engine, "_PART_MIN_SLOTS", 0)
        yield


def one_part():
    """The reference: one part, one block for the whole pass."""
    return forced(1, 2**62)


def make_campaign(
    rng: np.random.Generator, n_workers: int, n_tasks: int, answer: float, n_values: int
) -> Dataset:
    tasks = tuple(Task(task_id=f"t{j}", domain=VALUES[:n_values]) for j in range(n_tasks))
    claims = {
        (f"w{i}", f"t{j}"): VALUES[int(rng.integers(n_values))]
        for j in range(n_tasks)
        for i in range(n_workers)
        if rng.random() < answer
    }
    workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n_workers))
    return Dataset(tasks=tasks, workers=workers, claims=claims)


def distinct_answers(n_workers: int, n_tasks: int) -> Dataset:
    """Every worker answers every task with its own value: pairs, but
    no multi-provider group."""
    values = tuple(f"v{i}" for i in range(n_workers))
    tasks = tuple(Task(task_id=f"t{j}", domain=values) for j in range(n_tasks))
    claims = {
        (f"w{i}", task.task_id): values[i] for task in tasks for i in range(n_workers)
    }
    workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n_workers))
    return Dataset(tasks=tasks, workers=workers, claims=claims)


def pass_inputs(index: DatasetIndex, rng: np.random.Generator, zipf: bool):
    arrays = index.arrays
    worker_acc = rng.choice([0.0, 1.0, 0.01, 0.99, 0.3, 0.7, 0.55], size=index.n_workers)
    claim_acc = worker_acc[arrays.claim_worker]
    group_counts = np.diff(arrays.task_group_ptr)
    truth_codes = np.where(
        group_counts > 0, rng.integers(-1, np.maximum(group_counts, 1)), -1
    ).astype(np.int64)
    false_values = ZipfFalseValues(1.3) if zipf else UniformFalseValues()
    return truth_codes, claim_acc, false_values.collision_array(index)


def dependence(arrays, truth_codes, claim_acc, collision, r, alpha):
    return pairwise_dependence_arrays(
        arrays, truth_codes, claim_acc, copy_prob_r=r, prior_alpha=alpha, collision=collision
    )


def oracle_dependence(arrays, truth_codes, claim_acc, collision, r, alpha):
    """The classwise numpy scorer over all rows, ``np.bincount`` pair
    sums (the kernel's summation order) and the elementwise normalizer."""
    n_rows = len(arrays.ps_pair)
    terms = [np.empty(n_rows) for _ in range(3)]
    classwise_score_pair_rows(
        arrays, truth_codes, claim_acc, r=r, collision=collision, lo=0.01, hi=0.99,
        rows=slice(0, n_rows), out_ind=terms[0], out_ab=terms[1], out_ba=terms[2],
    )
    sums = [np.bincount(arrays.ps_pair, weights=t, minlength=arrays.n_pairs) for t in terms]
    return _dependence_posteriors(*sums, alpha)


def assert_cuts_change_no_bit(index: DatasetIndex, rng: np.random.Generator, zipf: bool):
    arrays = index.arrays
    truth_codes, claim_acc, collision = pass_inputs(index, rng, zipf)
    r, alpha = float(rng.choice([0.05, 0.4, 0.8])), float(rng.choice([0.1, 0.5]))
    inputs = (arrays, truth_codes, claim_acc, collision, r, alpha)
    with one_part():
        whole = dependence(*inputs)
        whole_indep = {
            (o, m): independence_flat(arrays, whole, copy_prob_r=r, ordering=o, discount_mode=m)
            for o in ORDERINGS
            for m in MODES
        }
    for got, want in zip((whole.p_ab, whole.p_ba), oracle_dependence(*inputs)):
        assert got.tobytes() == want.tobytes()
    for (o, m), indep in whole_indep.items():
        oracle = batched_independence_flat(
            arrays, whole, copy_prob_r=r, ordering=o, discount_mode=m
        )
        assert indep.tobytes() == oracle.tobytes(), (o, m)
    for parts, block_rows in CUTS:
        with forced(parts, block_rows):
            cut = dependence(*inputs)
            assert cut.p_ab.tobytes() == whole.p_ab.tobytes(), (parts, block_rows)
            assert cut.p_ba.tobytes() == whole.p_ba.tobytes(), (parts, block_rows)
            for (o, m), indep in whole_indep.items():
                got = independence_flat(arrays, cut, copy_prob_r=r, ordering=o, discount_mode=m)
                assert got.tobytes() == indep.tobytes(), (parts, block_rows, o, m)


@st.composite
def campaigns(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dataset = make_campaign(
        rng,
        n_workers=draw(st.integers(1, 12)),
        n_tasks=draw(st.integers(1, 10)),
        answer=draw(st.sampled_from([0.3, 0.7, 1.0])),
        n_values=draw(st.integers(1, 4)),
    )
    return DatasetIndex(dataset), rng, draw(st.booleans())


class TestCutsChangeNoBit:
    @given(case=campaigns())
    @settings(max_examples=60, derandomize=True)
    def test_random_campaigns(self, case):
        index, rng, zipf = case
        assert_cuts_change_no_bit(index, rng, zipf)

    def test_corpus_has_pairs_longer_than_a_block_and_empty_parts(self):
        # Guards the random corpus: pairs longer than the one-row
        # blocks, and campaigns with fewer pairs than parts.
        @given(case=campaigns())
        @settings(max_examples=60, derandomize=True)
        def shapes(case):
            arrays = case[0].arrays
            rows = np.diff(arrays.pair_ptr)
            long_pairs.append(bool(len(rows)) and int(rows.max()) > 1)
            few_pairs.append(0 < arrays.n_pairs < 3)

        long_pairs: list[bool] = []
        few_pairs: list[bool] = []
        shapes()
        assert sum(long_pairs) >= 20
        assert sum(few_pairs) >= 3

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_pair_longer_than_a_block(self, seed):
        # Everyone answers all 12 tasks: each pair has 12 rows, so every
        # forced block of fewer rows must grow to hold its pair.
        rng = np.random.default_rng(seed)
        index = DatasetIndex(make_campaign(rng, 9, 12, 1.0, 3))
        assert int(np.diff(index.arrays.pair_ptr).min()) == 12
        assert_cuts_change_no_bit(index, rng, zipf=bool(seed))

    def test_single_pair_campaign(self):
        # One pair: the second and third parts get no pair at all.
        rng = np.random.default_rng(5)
        index = DatasetIndex(make_campaign(rng, 2, 9, 1.0, 2))
        assert index.arrays.n_pairs == 1
        assert_cuts_change_no_bit(index, rng, zipf=False)

    @pytest.mark.parametrize("n_workers", [0, 1])
    def test_no_pairs(self, n_workers):
        rng = np.random.default_rng(2)
        index = DatasetIndex(make_campaign(rng, n_workers, 3, 1.0, 2))
        assert index.arrays.n_pairs == 0
        assert_cuts_change_no_bit(index, rng, zipf=False)

    def test_no_multi_provider_groups(self):
        index = DatasetIndex(distinct_answers(n_workers=5, n_tasks=4))
        assert index.arrays.multi_group_buckets == [] and index.arrays.n_pairs == 10
        assert_cuts_change_no_bit(index, np.random.default_rng(3), zipf=True)

    def test_buckets_with_fewer_groups_than_parts(self):
        # Groups of sizes 2..7, most buckets a single group: three parts
        # leave some bucket runs empty.
        tasks, claims = [], {}
        for j, size in enumerate(range(2, 8)):
            tasks.append(Task(task_id=f"t{j}", domain=("A", "B")))
            for i in range(size):
                claims[(f"w{i}", f"t{j}")] = "A"
            claims[(f"w{size}", f"t{j}")] = "B"
        workers = tuple(WorkerProfile(worker_id=f"w{i}") for i in range(8))
        index = DatasetIndex(Dataset(tasks=tuple(tasks), workers=workers, claims=claims))
        assert min(len(c) for _, c in index.arrays.multi_group_buckets) == 1
        assert_cuts_change_no_bit(index, np.random.default_rng(4), zipf=False)

    @pytest.mark.parametrize("cut", CUTS)
    def test_whole_date_runs(self, cut):
        rng = np.random.default_rng(8)
        dataset = make_campaign(rng, 14, 20, 0.8, 3)
        with one_part():
            want = DATE().run(dataset)
        with forced(*cut):
            got = DATE().run(dataset)
        assert got.truths == want.truths and got.iterations == want.iterations
        assert got.accuracy_matrix.tobytes() == want.accuracy_matrix.tobytes()
        assert got.confidence == want.confidence
        assert got.dependence.p_ab.tobytes() == want.dependence.p_ab.tobytes()
        assert got.dependence.p_ba.tobytes() == want.dependence.p_ba.tobytes()


class TestPool:
    def test_a_pass_below_the_thresholds_never_creates_the_pool(self, monkeypatch):
        def refused(*_args, **_kwargs):
            raise AssertionError("a pass below the thresholds made the pool")

        monkeypatch.setattr(engine, "_pool", None)
        monkeypatch.setattr(engine, "ThreadPoolExecutor", refused)
        monkeypatch.setattr(engine, "_PARTS", 2)
        dataset = make_campaign(np.random.default_rng(1), 30, 40, 0.7, 3)
        arrays = DatasetIndex(dataset).arrays
        assert len(arrays.ps_pair) < engine._PART_MIN_ROWS
        assert sum(s.size for s in arrays.multi_group_slots) < engine._PART_MIN_SLOTS
        DATE().run(dataset)
        assert engine._pool is None

    def test_a_pass_above_the_thresholds_uses_the_pool(self, monkeypatch):
        # The counterpart of the test above: the same run with the
        # thresholds at zero does hand parts to the pool.
        submitted = []

        class Recording(engine.ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(args)
                return super().submit(fn, *args)

        monkeypatch.setattr(engine, "_pool", None)
        monkeypatch.setattr(engine, "ThreadPoolExecutor", Recording)
        dataset = make_campaign(np.random.default_rng(1), 30, 40, 0.7, 3)
        try:
            with forced(2, 64):
                DATE().run(dataset)
            assert submitted and set(submitted) == {(1,)}
        finally:
            if engine._pool is not None:
                engine._pool.shutdown()

    def test_concurrent_passes_share_the_pool(self):
        # More callers than cores, each cutting its passes in three
        # parts on the one pool, with the interpreter switching threads
        # as often as it can: every caller gets the one-part bits.
        rng = np.random.default_rng(6)
        cases = []
        for k in range(6):
            index = DatasetIndex(make_campaign(rng, 10 + k, 12, 0.8, 3))
            truth_codes, claim_acc, collision = pass_inputs(index, rng, zipf=k % 2 == 1)
            cases.append((index.arrays, truth_codes, claim_acc, collision, 0.4, 0.2))
        with one_part():
            wants = [self._both_passes(case) for case in cases]
        got: dict[int, bytes] = {}

        def caller(k: int) -> None:
            for _ in range(20):
                got[k] = self._both_passes(cases[k])
                if got[k] != wants[k]:
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with forced(3, 5):
                threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(cases))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [got.get(k) for k in range(len(cases))] == wants

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
    def test_a_forked_child_makes_its_own_pool(self):
        # The parent's pool threads do not exist in a forked child; a
        # child that reused the pool object would queue its parts on
        # them and wait forever.
        rng = np.random.default_rng(7)
        index = DatasetIndex(make_campaign(rng, 12, 12, 0.8, 3))
        case = (index.arrays, *pass_inputs(index, rng, zipf=False), 0.4, 0.2)
        with one_part():
            want = self._both_passes(case)
        with forced(2, 5):
            assert self._both_passes(case) == want
            assert engine._pool is not None
            context = multiprocessing.get_context("fork")
            results = context.Queue()
            child = context.Process(
                target=lambda: results.put(self._both_passes(case)), daemon=True
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
                child.start()
            try:
                got = results.get(timeout=60)
            finally:
                child.join(timeout=10)
                if child.is_alive():
                    child.kill()
        assert got == want

    @staticmethod
    def _both_passes(case) -> bytes:
        dep = dependence(*case)
        indep = independence_flat(case[0], dep, copy_prob_r=0.4, discount_mode="total")
        return dep.p_ab.tobytes() + dep.p_ba.tobytes() + indep.tobytes()
