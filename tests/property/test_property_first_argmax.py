"""Differential suite: the compiled per-task argmax against numpy, exactly.

:func:`repro.core.indexing.segment_first_argmax_code` (line 28's truth
selection, the majority vote and the zoo members' argmax) runs in C
(``argmax.c``); :func:`tests.oracles.segment_first_argmax_numpy` is the
numpy formulation it replaced.  Every code must match: tasks without
groups, exact ties, signed zeros, infinities and NaN.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indexing import segment_first_argmax_code

from tests.oracles import segment_first_argmax_numpy

#: Score palettes: few levels force ties; "special" mixes signed zeros,
#: infinities and NaN.
PALETTES = {
    "levels": [0.0, 1.0, 2.0],
    "special": [0.0, -0.0, 1.5, np.inf, -np.inf, np.nan, -2.0],
    "wide": None,
}


@st.composite
def segments(draw):
    counts = draw(st.lists(st.integers(0, 6), min_size=0, max_size=12))
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = PALETTES[draw(st.sampled_from(sorted(PALETTES)))]
    n = int(ptr[-1])
    values = rng.normal(size=n) if palette is None else rng.choice(palette, size=n)
    return values.astype(np.float64), ptr


@given(case=segments())
@settings(max_examples=300, derandomize=True)
def test_compiled_argmax_matches_numpy(case):
    values, ptr = case
    got = segment_first_argmax_code(values, ptr)
    assert got.dtype == np.int64
    assert got.tolist() == segment_first_argmax_numpy(values, ptr).tolist()


def test_integer_scores_and_empty_tasks():
    # The majority vote passes group sizes (int64); a task without
    # claims answers -1 and ties go to the smallest code.
    sizes = np.array([2, 3, 3, 1, 4, 4], dtype=np.int64)
    ptr = np.array([0, 3, 3, 4, 6], dtype=np.int64)
    assert segment_first_argmax_code(sizes, ptr).tolist() == [1, -1, 0, 0]
