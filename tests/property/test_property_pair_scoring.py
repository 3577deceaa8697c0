"""Property tests: the compiled pair-row scorer and pair sums are exact.

The dependence kernel scores every (pair, shared task) row under the
three hypotheses of Eqs. 7-13 in C (``dependence.c``, logs taken by
numpy) and sums each pair's rows in C.  These contracts are pinned,
bit for bit:

- **Oracle** — a full pass equals :func:`oracle_rows`, the unsplit
  per-row formulas written with ``np.where``.
- **Numpy scorer** — the full pass and every row subset equal
  :func:`tests.oracles.classwise_score_pair_rows`, the classwise numpy
  scorer the compiled one replaced, byte for byte.
- **Subsets** — scoring any subset of rows (ranges, scattered or
  unsorted index arrays, all-same rows, all-differing rows, nothing)
  writes exactly what the full pass writes at those positions; the
  incremental path relies on it.
- **Sums** — the compiled per-pair sums equal ``np.bincount`` by
  ``ps_pair``, on every pair and on any subset of pairs.

Campaigns mix closed domains of different sizes with open domains, so
the per-task collision probability varies from task to task (a scorer
that gathered collision by the wrong index would fail the oracle), and
accuracies include exact 0, 1 and the clamp bounds, either per worker
(``granularity="worker"``) or per claim (``granularity="task"``).
Every campaign with pair rows has a task whose truth code is -1, and
the corpus holds single-row pairs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, Task, WorkerProfile
from repro.core import DatasetIndex
from repro.core.engine import _pair_sums, _score_pair_rows, accuracy_flat
from repro.core.falsedist import UniformFalseValues, ZipfFalseValues

from tests.oracles import classwise_score_pair_rows
from tests.oracles.dependence import pair_row_classes
from tests.oracles.pairtables import pair_row_same

MIN_PROB = 1e-12
VALUES = ("A", "B", "C", "D", "E")


def oracle_rows(arrays, truth_codes, claim_acc, *, r, collision, lo, hi):
    """Per-row ``(ind, ab, ba)`` log-likelihood terms, unsplit."""
    ca, cb, tasks = arrays.ps_claim_a, arrays.ps_claim_b, arrays.ps_task
    acc_a = np.clip(claim_acc[ca], lo, hi)
    acc_b = np.clip(claim_acc[cb], lo, hi)
    code_a = arrays.claim_code[ca]
    same = code_a == arrays.claim_code[cb]
    is_truth = same & (code_a == truth_codes[tasks])
    p_true = acc_a * acc_b
    p_false = (1.0 - acc_a) * (1.0 - acc_b) * collision[tasks]
    p_same = np.where(is_truth, p_true, p_false)
    src_a = np.where(is_truth, acc_a, 1.0 - acc_a)
    src_b = np.where(is_truth, acc_b, 1.0 - acc_b)
    p_diff = np.maximum(1.0 - p_true - p_false, MIN_PROB)
    diff_dep = np.log(np.maximum(p_diff * (1.0 - r), MIN_PROB))
    ind = np.where(same, np.log(np.maximum(p_same, MIN_PROB)), np.log(p_diff))
    ab = np.where(same, np.log(np.maximum(src_b * r + p_same * (1.0 - r), MIN_PROB)), diff_dep)
    ba = np.where(same, np.log(np.maximum(src_a * r + p_same * (1.0 - r), MIN_PROB)), diff_dep)
    return ind, ab, ba


@st.composite
def scoring_cases(draw):
    """A campaign, kernel inputs and parameters for one scoring check."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_workers = draw(st.integers(2, 9))
    n_tasks = draw(st.integers(1, 8))
    tasks = []
    for j in range(n_tasks):
        size = int(rng.integers(0, len(VALUES) + 1))  # 0 = open domain
        tasks.append(Task(task_id=f"t{j}", domain=VALUES[:size] if size >= 2 else ()))
    claims = {}
    for j, task in enumerate(tasks):
        domain = task.domain or VALUES[: int(rng.integers(1, len(VALUES) + 1))]
        for i in range(n_workers):
            if rng.random() < 0.7:
                claims[(f"w{i}", task.task_id)] = domain[int(rng.integers(len(domain)))]
    dataset = Dataset(
        tasks=tuple(tasks),
        workers=tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n_workers)),
        claims=claims,
    )
    index = DatasetIndex(dataset)
    arrays = index.arrays

    model = draw(st.sampled_from(["uniform", "zipf"]))
    false_values = ZipfFalseValues(1.3) if model == "zipf" else UniformFalseValues()
    collision = false_values.collision_array(index)

    lo, hi = draw(st.sampled_from([(0.01, 0.99), (0.2, 0.7), (0.0, 1.0)]))
    specials = np.array([0.0, 1.0, lo, hi])
    granularity = draw(st.sampled_from(["worker", "task"]))
    if granularity == "task":
        # What Eq. 17 hands the kernel at task granularity: one posterior
        # per claim, so the two claims of a worker pair may differ freely.
        group_post = _with_specials(rng.uniform(0.0, 1.0, arrays.n_groups), specials, rng)
        claim_acc = accuracy_flat(arrays, group_post, granularity="task")
    else:
        worker_acc = _with_specials(rng.uniform(0.0, 1.0, n_workers), specials, rng)
        claim_acc = worker_acc[arrays.claim_worker]

    group_counts = np.diff(arrays.task_group_ptr)
    truth_codes = np.where(
        group_counts > 0, rng.integers(-1, np.maximum(group_counts, 1)), -1
    ).astype(np.int64)
    if len(arrays.ps_task):
        # A task with pair rows but no truth: every same-value row is T_f.
        truth_codes[arrays.ps_task[int(rng.integers(len(arrays.ps_task)))]] = -1
    params = dict(r=draw(st.sampled_from([0.05, 0.3, 0.8])), collision=collision, lo=lo, hi=hi)
    return arrays, truth_codes, claim_acc, params, rng


def _with_specials(values: np.ndarray, specials: np.ndarray, rng) -> np.ndarray:
    """``values`` with about 40% of entries replaced by special values."""
    hit = rng.random(len(values)) < 0.4
    values[hit] = rng.choice(specials, size=int(hit.sum()))
    return values


def _score(arrays, truth_codes, claim_acc, params, rows):
    """The compiled scorer's ``(ind, ab, ba)`` for ``rows`` (None: all)."""
    n = len(arrays.ps_pair) if rows is None else len(rows)
    outs = [np.full(n, np.nan) for _ in range(3)]
    _score_pair_rows(
        arrays,
        truth_codes,
        claim_acc,
        rows=rows,
        out_ind=outs[0],
        out_ab=outs[1],
        out_ba=outs[2],
        **params,
    )
    return outs


def _numpy_score(arrays, truth_codes, claim_acc, params, rows):
    """The classwise numpy scorer's ``(ind, ab, ba)`` for ``rows``."""
    n = len(np.arange(len(arrays.ps_pair))[rows])
    outs = [np.full(n, np.nan) for _ in range(3)]
    classwise_score_pair_rows(
        arrays,
        truth_codes,
        claim_acc,
        rows=rows,
        out_ind=outs[0],
        out_ab=outs[1],
        out_ba=outs[2],
        **params,
    )
    return outs


def _full(arrays, truth_codes, claim_acc, params):
    return _score(arrays, truth_codes, claim_acc, params, None)


def _subsets(arrays, rng):
    """Row subsets: a contiguous range, empty, scattered, unsorted,
    all-same and all-differing, as index arrays."""
    n = len(arrays.ps_pair)
    start = int(rng.integers(0, n + 1))
    stop = int(rng.integers(start, n + 1))
    return [
        np.arange(start, stop),
        np.empty(0, dtype=np.int64),
        np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)),
        rng.permutation(n)[: int(rng.integers(0, n + 1))],
        np.flatnonzero(pair_row_same(arrays)),
        np.flatnonzero(~pair_row_same(arrays)),
    ]


def _dense_campaign(*, n_workers: int, n_tasks: int, seed: int) -> Dataset:
    """Every worker answers every task from a three-value domain."""
    rng = np.random.default_rng(seed)
    tasks = tuple(Task(task_id=f"t{j}", domain=VALUES[:3]) for j in range(n_tasks))
    claims = {
        (f"w{i}", task.task_id): VALUES[int(rng.integers(3))]
        for task in tasks
        for i in range(n_workers)
    }
    return Dataset(
        tasks=tasks,
        workers=tuple(WorkerProfile(worker_id=f"w{i}") for i in range(n_workers)),
        claims=claims,
    )


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


class TestOracle:
    @given(case=scoring_cases())
    @settings(max_examples=80, derandomize=True)
    def test_full_pass_equals_unsplit_formulas(self, case):
        arrays, truth_codes, claim_acc, params, _ = case
        for got, want in zip(
            _full(arrays, truth_codes, claim_acc, params),
            oracle_rows(arrays, truth_codes, claim_acc, **params),
        ):
            np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_collision_varies_per_task_in_the_corpus(self):
        # Guards the oracle's power: with one collision value everywhere
        # a wrong-index gather would go unnoticed.
        @given(case=scoring_cases())
        @settings(max_examples=80, derandomize=True)
        def varied(case):
            arrays, _, _, params, _ = case
            seen.append(len(np.unique(params["collision"][arrays.ps_task])) > 1)

        seen: list[bool] = []
        varied()
        assert sum(seen) >= 20

    def test_corpus_has_single_row_pairs_and_untruthed_tasks(self):
        # Guards the corpus: pairs that share one task, and pair rows on
        # a task whose truth code is -1.
        @given(case=scoring_cases())
        @settings(max_examples=80, derandomize=True)
        def shapes(case):
            arrays, truth_codes, _, _, _ = case
            has_rows.append(len(arrays.ps_task) > 0)
            single.append(bool(np.any(np.diff(arrays.pair_ptr) == 1)))
            untruthed.append(bool(np.any(truth_codes[arrays.ps_task] == -1)))

        has_rows: list[bool] = []
        single: list[bool] = []
        untruthed: list[bool] = []
        shapes()
        assert sum(single) >= 20
        assert sum(has_rows) >= 20 and untruthed == has_rows


class TestNumpyScorer:
    @given(case=scoring_cases())
    @settings(max_examples=80, derandomize=True)
    def test_full_pass_matches_numpy_scorer(self, case):
        arrays, truth_codes, claim_acc, params, _ = case
        n = len(arrays.ps_pair)
        for got, want in zip(
            _full(arrays, truth_codes, claim_acc, params),
            _numpy_score(arrays, truth_codes, claim_acc, params, slice(0, n)),
        ):
            assert got.tobytes() == want.tobytes()

    @given(case=scoring_cases())
    @settings(max_examples=80, derandomize=True)
    def test_subsets_match_numpy_scorer(self, case):
        arrays, truth_codes, claim_acc, params, rng = case
        for rows in _subsets(arrays, rng):
            for got, want in zip(
                _score(arrays, truth_codes, claim_acc, params, rows),
                _numpy_score(arrays, truth_codes, claim_acc, params, rows),
            ):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("clamp", [(0.01, 0.99), (0.2, 0.7), (0.0, 1.0)])
    def test_accuracies_at_zero_one_and_the_clamp_bounds(self, clamp):
        # Only special accuracies, per claim: exact 0 and 1 and each
        # bound, on either side of every pair.
        lo, hi = clamp
        dataset = _dense_campaign(n_workers=7, n_tasks=6, seed=3)
        arrays = DatasetIndex(dataset).arrays
        rng = np.random.default_rng(11)
        claim_acc = rng.choice([0.0, 1.0, lo, hi], size=arrays.n_claims)
        truth_codes = np.zeros(arrays.n_tasks, dtype=np.int64)
        truth_codes[::2] = -1
        collision = np.linspace(0.1, 0.6, arrays.n_tasks)
        params = dict(r=0.3, collision=collision, lo=lo, hi=hi)
        n = len(arrays.ps_pair)
        shuffled = rng.permutation(n)
        for rows, numpy_rows in [(None, slice(0, n)), (shuffled, shuffled)]:
            for got, want in zip(
                _score(arrays, truth_codes, claim_acc, params, rows),
                _numpy_score(arrays, truth_codes, claim_acc, params, numpy_rows),
            ):
                assert got.tobytes() == want.tobytes()


    def test_nan_accuracies_propagate_as_in_numpy(self):
        # clip and maximum pass NaN through; every term a NaN accuracy
        # reaches is the same NaN on both sides.
        arrays = DatasetIndex(_dense_campaign(n_workers=6, n_tasks=5, seed=8)).arrays
        rng = np.random.default_rng(9)
        claim_acc = rng.choice([np.nan, 0.3, 0.8, 1.0], size=arrays.n_claims)
        truth_codes = rng.integers(-1, 3, size=arrays.n_tasks)
        params = dict(r=0.3, collision=np.full(arrays.n_tasks, 0.25), lo=0.01, hi=0.99)
        n = len(arrays.ps_pair)
        with np.errstate(invalid="ignore"):
            got = _score(arrays, truth_codes, claim_acc, params, None)
            want = _numpy_score(arrays, truth_codes, claim_acc, params, slice(0, n))
        assert np.isnan(got[0]).any()
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


class TestSubsets:
    @given(case=scoring_cases())
    @settings(max_examples=80, derandomize=True)
    def test_subset_writes_full_pass_bits(self, case):
        arrays, truth_codes, claim_acc, params, rng = case
        full = _full(arrays, truth_codes, claim_acc, params)
        for rows in _subsets(arrays, rng):
            got = _score(arrays, truth_codes, claim_acc, params, rows)
            for part, whole in zip(got, full):
                np.testing.assert_array_equal(_bits(part), _bits(whole[rows]))

    def test_row_classes_partition_the_rows(self):
        dataset = Dataset(
            tasks=(Task(task_id="t0", domain=("A", "B")), Task(task_id="t1", domain=("A", "B"))),
            workers=tuple(WorkerProfile(worker_id=f"w{i}") for i in range(3)),
            claims={("w0", "t0"): "A", ("w1", "t0"): "A", ("w2", "t0"): "B",
                    ("w0", "t1"): "B", ("w2", "t1"): "B"},
        )
        arrays = DatasetIndex(dataset).arrays
        same, differ = pair_row_classes(arrays)
        np.testing.assert_array_equal(
            np.sort(np.concatenate([same.rows, differ.rows])), np.arange(len(arrays.ps_pair))
        )
        np.testing.assert_array_equal(
            arrays.claim_code[same.claim_a], arrays.claim_code[same.claim_b]
        )
        assert np.all(arrays.claim_code[differ.claim_a] != arrays.claim_code[differ.claim_b])
        np.testing.assert_array_equal(same.code, arrays.claim_code[same.claim_a])
        assert differ.code is None
        assert len(same.rows) == 2 and len(differ.rows) == 2


class TestPairSums:
    @given(case=scoring_cases())
    @settings(max_examples=80, derandomize=True)
    def test_sums_equal_bincount(self, case):
        arrays, truth_codes, claim_acc, params, rng = case
        terms = tuple(_full(arrays, truth_codes, claim_acc, params))
        n_pairs = arrays.n_pairs
        want = [np.bincount(arrays.ps_pair, weights=w, minlength=n_pairs) for w in terms]
        sums = tuple(np.full(n_pairs, np.nan) for _ in range(3))
        _pair_sums(arrays, terms, sums)
        for got, expected in zip(sums, want):
            assert got.tobytes() == expected.tobytes()

        # A subset of pairs, in any order, writes those pairs' full-pass
        # sums and leaves every other entry alone.
        for pairs in (
            np.empty(0, dtype=np.int64),
            np.sort(rng.choice(n_pairs, size=int(rng.integers(0, n_pairs + 1)), replace=False)),
            rng.permutation(n_pairs)[: int(rng.integers(0, n_pairs + 1))],
        ):
            sums = tuple(np.full(n_pairs, -7.0) for _ in range(3))
            _pair_sums(arrays, terms, sums, pairs)
            untouched = np.ones(n_pairs, dtype=bool)
            untouched[pairs] = False
            for got, expected in zip(sums, want):
                assert got[pairs].tobytes() == expected[pairs].tobytes()
                assert np.all(got[untouched] == -7.0)


class TestBufferChecks:
    def _case(self):
        arrays = DatasetIndex(_dense_campaign(n_workers=4, n_tasks=3, seed=1)).arrays
        n_tasks = arrays.n_tasks
        inputs = (np.zeros(n_tasks, dtype=np.int64), np.full(arrays.n_claims, 0.6))
        params = dict(r=0.3, collision=np.full(n_tasks, 0.2), lo=0.01, hi=0.99)
        return arrays, inputs, params

    @pytest.mark.parametrize("rows", [[-1], [10**6]])
    def test_out_of_range_rows_rejected(self, rows):
        arrays, (truth_codes, claim_acc), params = self._case()
        with pytest.raises(IndexError, match="rows"):
            _score(arrays, truth_codes, claim_acc, params, np.array(rows))

    def test_short_inputs_and_outputs_rejected(self):
        arrays, (truth_codes, claim_acc), params = self._case()
        with pytest.raises(ValueError, match="accuracies"):
            _score(arrays, truth_codes, claim_acc[:-1], params, None)
        with pytest.raises(ValueError, match="truth codes"):
            _score(arrays, truth_codes[:-1], claim_acc, params, None)
        outs = [np.empty(len(arrays.ps_pair) - 1) for _ in range(3)]
        with pytest.raises(ValueError, match="contiguous float64"):
            _score_pair_rows(
                arrays, truth_codes, claim_acc, rows=None,
                out_ind=outs[0], out_ab=outs[1], out_ba=outs[2], **params,
            )

    def test_out_of_range_pairs_rejected(self):
        arrays, _, _ = self._case()
        rows = tuple(np.zeros(len(arrays.ps_pair)) for _ in range(3))
        sums = tuple(np.zeros(arrays.n_pairs) for _ in range(3))
        with pytest.raises(IndexError, match="pairs"):
            _pair_sums(arrays, rows, sums, np.array([arrays.n_pairs]))
