"""Property tests: every non-DATE zoo member runs on a restricted view.

`OnlineDATE` runs its algorithm on `DatasetIndex.restricted(dirty)`, a
view whose `dataset` is `None`, as `run(None, index=view)`.  For MV, NC,
ED, TruthFinder, FDS and LCA that run must be bit-identical to the same
member run on the cold sub-campaign the view replaced
(`tests.oracles.streaming._subcampaign`) — both the full run and the
warm-started lean run the streaming path makes.  DATE's own sub-run is
pinned in `test_property_restricted_index.py`, whose campaign strategy
this suite reuses.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.discovery import make_discoverer

from tests.oracles.streaming import _subcampaign
from tests.property.test_property_restricted_index import grown_indexes

pytestmark = pytest.mark.filterwarnings("ignore::repro.errors.ConvergenceWarning")

MEMBERS = ("MV", "NC", "ED", "TruthFinder", "FDS", "LCA")


def _hexed(mapping):
    return {key: value.hex() for key, value in mapping.items()}


def assert_bit_identical(got, want):
    assert got.truths == want.truths
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.accuracy_matrix.tobytes() == want.accuracy_matrix.tobytes()
    assert _hexed(got.confidence) == _hexed(want.confidence)
    assert _hexed(got.worker_accuracy) == _hexed(want.worker_accuracy)
    assert got.support == want.support
    assert got.dependence == want.dependence
    assert got.worker_ids == want.worker_ids
    assert got.task_ids == want.task_ids
    assert got._ground_truths == want._ground_truths


@pytest.mark.parametrize("name", MEMBERS)
@given(case=grown_indexes())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_view_run_is_bit_identical(name, case):
    index, dirty = case
    view, _ = index.restricted(np.asarray(dirty, dtype=np.int64))
    sub = _subcampaign(index, dirty)
    member = make_discoverer(name)

    want = member.run(sub)
    assert_bit_identical(member.run(None, index=view), want)

    # The streaming path: warm-started from a previous estimate, lean.
    assert_bit_identical(
        member.run(None, index=view, warm_start=want, lean=True),
        member.run(sub, warm_start=want, lean=True),
    )
