"""False-value distribution models (Sec. II-B and Sec. IV-B).

The base algorithm assumes a *uniform* false-value distribution: an
independent worker that errs picks each of the ``num_j`` false values
with probability ``1/num_j``.  Section IV-B generalizes this with a
density ``f(h)`` over false-value probabilities, replacing

- the pairwise collision probability ``1/num_j`` in Eq. 8 with
  ``∫ h² f(h) dh`` (Eq. 22), and
- the per-false-value factor of Eq. 18 with the value's own
  probability (Eq. 23).

Instead of carrying ``f(h)`` symbolically, each model here exposes the
two quantities the formulas actually consume:

- :meth:`FalseValueDistribution.collision_probability` — the chance two
  independent erring workers pick the *same* false value
  (``Σ_v p_v²``); and
- :meth:`FalseValueDistribution.value_probability` — the chance an
  independent erring worker picks one *given* false value.

With :class:`UniformFalseValues` both reduce exactly to the paper's
original formulas, so the base algorithm is the special case.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from weakref import WeakKeyDictionary

import numpy as np

from ..errors import ConfigurationError
from .indexing import DatasetIndex

__all__ = [
    "FalseValueDistribution",
    "UniformFalseValues",
    "ZipfFalseValues",
    "EmpiricalFalseValues",
]


class FalseValueDistribution(ABC):
    """Model of how independent workers distribute their errors.

    Implementations may use the dataset index (for example to rank
    values by observed popularity) but must not use task ground truths.

    The DATE kernels consume the two batch views
    :meth:`collision_array` and :meth:`value_probability_array`; their
    defaults loop over the scalar methods and cache per dataset index,
    so custom models work unmodified (and fast models override them
    with closed forms).  Set :attr:`candidate_free` to ``True`` when
    ``value_probability`` ignores both the value and the assumed truth
    (as the uniform model does) to unlock the fully flat posterior
    kernel.
    """

    #: True when ``value_probability`` depends only on the task — i.e.
    #: q(v | truth) is one number per task.
    candidate_free = False

    def __fingerprint__(self) -> dict:
        """Identifying parameters for the run ledger's canonical
        fingerprint (:mod:`repro.artifacts.fingerprint`).

        The base model is parameter-free; parameterized subclasses
        (Zipf, empirical) override this with their constructor state —
        never the per-dataset caches, which derive from the data.
        """
        return {}

    def prepare(self, index: DatasetIndex) -> None:
        """Hook called once per DATE run before any queries.

        Models that derive their shape from the data (Zipf ranking,
        empirical fitting) compute their per-task tables here.
        """

    def _array_cache(self, index: DatasetIndex) -> dict:
        """Per-(model, index) cache for the batch views below.

        Lives on the index's array view inside a ``WeakKeyDictionary``
        keyed by the model, so a long-lived shared index does not pin
        every model a sweep ever instantiated (each grid point's model
        and its arrays are released when the model goes away).
        """
        caches = index.arrays.__dict__.setdefault(
            "_falsedist_cache", WeakKeyDictionary()
        )
        return caches.setdefault(self, {})

    def collision_array(self, index: DatasetIndex) -> np.ndarray:
        """Per-task collision probabilities as one array (Eq. 22).

        Collision probabilities are truth-independent, so the array is a
        pure function of the dataset; it is computed once per index and
        cached (the scalar kernels recompute the same values per call).
        """
        cache = self._array_cache(index)
        if "collision" not in cache:
            cache["collision"] = np.array(
                [
                    self.collision_probability(j, index)
                    for j in range(index.n_tasks)
                ],
                dtype=np.float64,
            )
        return cache["collision"]

    def value_probability_array(self, index: DatasetIndex) -> np.ndarray:
        """Per-value-group false probabilities ``q_j(v)``, truth-free.

        One entry per group of ``index.arrays`` (``assumed_truth=None``,
        the query the discounted posterior makes), floored at the
        likelihood clamp like the scalar kernel.  Cached per index.
        """
        cache = self._array_cache(index)
        if "group_q" not in cache:
            arrays = index.arrays
            cache["group_q"] = np.maximum(
                np.array(
                    [
                        self.value_probability(
                            int(arrays.group_task[g]),
                            index,
                            arrays.group_values[g],
                            None,
                        )
                        for g in range(arrays.n_groups)
                    ],
                    dtype=np.float64,
                ),
                1e-12,
            )
        return cache["group_q"]

    def value_probability_matrices(self, index: DatasetIndex) -> list[np.ndarray]:
        """Per-task ``K_j x K_j`` matrices ``Q[v, c] = q_j(v | c true)``.

        Rows follow the task's value codes (observed values in sorted
        order), columns the candidate truths in the same order.  These
        are iteration-invariant, so the general (non candidate-free)
        posterior kernel computes them once per index and reuses them
        every iteration.
        """
        cache = self._array_cache(index)
        if "q_matrices" not in cache:
            arrays = index.arrays
            matrices: list[np.ndarray] = []
            for j in range(index.n_tasks):
                g0 = int(arrays.task_group_ptr[j])
                g1 = int(arrays.task_group_ptr[j + 1])
                values = arrays.group_values[g0:g1]
                matrices.append(
                    np.array(
                        [
                            [
                                self.value_probability(j, index, value, candidate)
                                for candidate in values
                            ]
                            for value in values
                        ],
                        dtype=np.float64,
                    )
                )
            cache["q_matrices"] = matrices
        return cache["q_matrices"]

    @abstractmethod
    def collision_probability(self, task_index: int, index: DatasetIndex) -> float:
        """``Σ_v p_v²`` over the false values of one task (Eq. 22's integral)."""

    @abstractmethod
    def value_probability(
        self,
        task_index: int,
        index: DatasetIndex,
        value: str,
        assumed_truth: str | None,
    ) -> float:
        """Probability an independent erring worker picks ``value``.

        ``assumed_truth`` is the candidate truth currently being scored;
        the distribution is over the remaining (false) values.  ``None``
        asks for the typical false-value probability without committing
        to a truth (used by the discounted posterior mode).
        """


class UniformFalseValues(FalseValueDistribution):
    """The paper's base assumption (Sec. II-B): all false values equally likely."""

    candidate_free = True

    def collision_array(self, index: DatasetIndex) -> np.ndarray:
        return 1.0 / index.num_false.astype(np.float64)

    def value_probability_array(self, index: DatasetIndex) -> np.ndarray:
        arrays = index.arrays
        return 1.0 / index.num_false.astype(np.float64)[arrays.group_task]

    def collision_probability(self, task_index: int, index: DatasetIndex) -> float:
        return 1.0 / float(index.num_false[task_index])

    def value_probability(
        self,
        task_index: int,
        index: DatasetIndex,
        value: str,
        assumed_truth: str | None,
    ) -> float:
        return 1.0 / float(index.num_false[task_index])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UniformFalseValues()"


def _observed_counts(index: DatasetIndex, j: int) -> dict[str, int]:
    """Task ``j``'s ``value -> claim count``, values in sorted order."""
    arrays = index.arrays
    g0, g1 = arrays.task_group_ptr[j], arrays.task_group_ptr[j + 1]
    return dict(zip(arrays.group_values[g0:g1], arrays.group_size[g0:g1].tolist()))


def _normalized_zipf(count: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


class ZipfFalseValues(FalseValueDistribution):
    """Zipf-shaped false values: a few popular wrong answers dominate.

    This captures the paper's motivating example ("most people believe
    Australia's capital is Sydney"): rank 1 gets the bulk of the error
    mass.  Ranks are assigned per task by *observed* support (the most
    claimed non-truth-candidate value is rank 1), falling back to
    lexicographic order for unobserved domain values; ground truth is
    never consulted.
    """

    def __init__(self, exponent: float = 1.0):
        if exponent < 0:
            raise ConfigurationError("Zipf exponent must be >= 0")
        self.exponent = float(exponent)
        self._ranking: list[list[str]] = []

    def __fingerprint__(self) -> dict:
        return {"exponent": self.exponent}

    def prepare(self, index: DatasetIndex) -> None:
        self._ranking = []
        for j in range(index.n_tasks):
            counts = Counter(_observed_counts(index, j))
            task = index.tasks[j]
            for domain_value in task.domain:
                counts.setdefault(domain_value, 0)
            ordered = sorted(counts, key=lambda v: (-counts[v], v))
            self._ranking.append(ordered)

    def _probabilities(
        self, task_index: int, index: DatasetIndex, assumed_truth: str | None
    ) -> dict[str, float]:
        if not self._ranking:
            self.prepare(index)
        ordered = [v for v in self._ranking[task_index] if v != assumed_truth]
        count = max(len(ordered), int(index.num_false[task_index]))
        probs = _normalized_zipf(count, self.exponent)
        return {v: float(probs[rank]) for rank, v in enumerate(ordered)}

    def collision_probability(self, task_index: int, index: DatasetIndex) -> float:
        # The collision probability is (nearly) truth-independent; use
        # the full ranking so dependence scoring needs no truth guess.
        probs = self._probabilities(task_index, index, assumed_truth=None)
        count = max(len(probs), int(index.num_false[task_index]))
        vector = _normalized_zipf(count, self.exponent)
        return float(np.sum(vector**2))

    def value_probability(
        self,
        task_index: int,
        index: DatasetIndex,
        value: str,
        assumed_truth: str | None,
    ) -> float:
        probs = self._probabilities(task_index, index, assumed_truth)
        if value in probs:
            return probs[value]
        # Unseen, undeclared value: give it the tail probability.
        count = max(len(probs) + 1, int(index.num_false[task_index]))
        return float(_normalized_zipf(count, self.exponent)[-1])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ZipfFalseValues(exponent={self.exponent})"


class EmpiricalFalseValues(FalseValueDistribution):
    """False-value shape estimated from the observed claim frequencies.

    For each task the distribution over values *other than the candidate
    truth* is proportional to their observed claim counts (plus
    Laplace smoothing ``smoothing`` so unobserved domain values keep
    non-zero mass).  This is the data-driven instantiation of Sec. IV-B.
    """

    def __init__(self, smoothing: float = 1.0):
        if smoothing <= 0:
            raise ConfigurationError("smoothing must be > 0")
        self.smoothing = float(smoothing)
        self._counts: list[dict[str, int]] = []

    def __fingerprint__(self) -> dict:
        return {"smoothing": self.smoothing}

    def prepare(self, index: DatasetIndex) -> None:
        self._counts = []
        for j in range(index.n_tasks):
            counts = _observed_counts(index, j)
            for domain_value in index.tasks[j].domain:
                counts.setdefault(domain_value, 0)
            self._counts.append(counts)

    def _smoothed(
        self, task_index: int, index: DatasetIndex, assumed_truth: str | None
    ) -> dict[str, float]:
        if not self._counts:
            self.prepare(index)
        counts = self._counts[task_index]
        items = {
            v: c + self.smoothing for v, c in counts.items() if v != assumed_truth
        }
        if not items:
            return {}
        total = sum(items.values())
        return {v: c / total for v, c in items.items()}

    def collision_probability(self, task_index: int, index: DatasetIndex) -> float:
        probs = self._smoothed(task_index, index, assumed_truth=None)
        if not probs:
            return 1.0 / float(index.num_false[task_index])
        return float(sum(p * p for p in probs.values()))

    def value_probability(
        self,
        task_index: int,
        index: DatasetIndex,
        value: str,
        assumed_truth: str | None,
    ) -> float:
        probs = self._smoothed(task_index, index, assumed_truth)
        if value in probs:
            return probs[value]
        # Unseen value: pretend it had a zero count, i.e. smoothing mass.
        total = sum(self._counts[task_index].values()) + self.smoothing * (
            len(probs) + 1
        )
        return self.smoothing / total if total > 0 else 1.0 / float(
            index.num_false[task_index]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EmpiricalFalseValues(smoothing={self.smoothing})"
