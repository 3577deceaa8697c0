"""Property tests: the pair-row scorer is elementwise and exact.

The dependence kernel scores every (pair, shared task) row under the
three hypotheses of Eqs. 7-13, splitting rows by their static
same-value class.  Two contracts are pinned, bit for bit:

- **Oracle** — a full pass equals :func:`oracle_rows`, the unsplit
  per-row formulas written with ``np.where``.
- **Subsets** — scoring any subset of rows (slices, scattered or
  unsorted index arrays, all-same rows, all-differing rows, nothing)
  writes exactly what the full pass writes at those positions; the
  blocked and incremental paths rely on it.

Campaigns mix closed domains of different sizes with open domains, so
the per-task collision probability varies from task to task (a scorer
that gathered collision by the wrong index would fail the oracle), and
accuracies include exact 0, 1 and the clamp bounds, either per worker
(``granularity="worker"``) or per claim (``granularity="task"``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, Task, WorkerProfile
from repro.core import DatasetIndex
from repro.core.engine import KernelScratch, _score_pair_rows, accuracy_flat
from repro.core.falsedist import UniformFalseValues, ZipfFalseValues

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
    false_values.prepare(index)
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
    params = dict(r=draw(st.sampled_from([0.05, 0.3, 0.8])), collision=collision, lo=lo, hi=hi)
    return arrays, truth_codes, claim_acc, params, rng


def _with_specials(values: np.ndarray, specials: np.ndarray, rng) -> np.ndarray:
    """``values`` with about 40% of entries replaced by special values."""
    hit = rng.random(len(values)) < 0.4
    values[hit] = rng.choice(specials, size=int(hit.sum()))
    return values


def _score(arrays, truth_codes, claim_acc, params, rows, n):
    outs = [np.full(n, np.nan) for _ in range(3)]
    _score_pair_rows(
        arrays,
        truth_codes,
        claim_acc,
        rows=rows,
        out_ind=outs[0],
        out_ab=outs[1],
        out_ba=outs[2],
        scratch=KernelScratch(),
        **params,
    )
    return outs


def _full(arrays, truth_codes, claim_acc, params):
    n = len(arrays.ps_pair)
    return _score(arrays, truth_codes, claim_acc, params, slice(0, n), n)


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


class TestSubsets:
    @given(case=scoring_cases())
    @settings(max_examples=80, derandomize=True)
    def test_subset_writes_full_pass_bits(self, case):
        arrays, truth_codes, claim_acc, params, rng = case
        full = _full(arrays, truth_codes, claim_acc, params)
        n = len(arrays.ps_pair)
        start = int(rng.integers(0, n + 1))
        stop = int(rng.integers(start, n + 1))
        subsets = [
            slice(start, stop),
            slice(start, start),
            np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)),
            rng.permutation(n)[: int(rng.integers(0, n + 1))],
            np.flatnonzero(arrays.pair_row_same),
            np.flatnonzero(~arrays.pair_row_same),
            np.empty(0, dtype=np.int64),
        ]
        for rows in subsets:
            positions = np.arange(n)[rows]
            got = _score(arrays, truth_codes, claim_acc, params, rows, len(positions))
            for part, whole in zip(got, full):
                np.testing.assert_array_equal(_bits(part), _bits(whole[positions]))

    def test_row_classes_partition_the_rows(self):
        dataset = Dataset(
            tasks=(Task(task_id="t0", domain=("A", "B")), Task(task_id="t1", domain=("A", "B"))),
            workers=tuple(WorkerProfile(worker_id=f"w{i}") for i in range(3)),
            claims={("w0", "t0"): "A", ("w1", "t0"): "A", ("w2", "t0"): "B",
                    ("w0", "t1"): "B", ("w2", "t1"): "B"},
        )
        arrays = DatasetIndex(dataset).arrays
        same, differ = arrays.pair_row_classes
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
