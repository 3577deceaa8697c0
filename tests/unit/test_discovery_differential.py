"""Differential pins: building through the registry changes nothing.

``make_discoverer`` for DATE/MV/NC/ED must be bit-identical to
constructing the engines directly.  Covers ``run`` and the lean
pass-through of the DATE family.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import EnumerateDependence, MajorityVote, NoCopier
from repro.core.config import DateConfig
from repro.core.date import DATE
from repro.core.indexing import DatasetIndex
from repro.discovery import make_discoverer

_ENGINES = {
    "DATE": lambda cfg: DATE(cfg),
    "MV": lambda cfg: MajorityVote(),
    "NC": lambda cfg: NoCopier(cfg),
    "ED": lambda cfg: EnumerateDependence(cfg),
}


def _assert_same(a, b):
    assert a.truths == b.truths
    assert a.worker_accuracy == b.worker_accuracy
    assert a.confidence == b.confidence
    assert a.support == b.support
    assert a.dependence == b.dependence
    assert np.array_equal(a.accuracy_matrix, b.accuracy_matrix)
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.method == b.method
    assert a.worker_ids == b.worker_ids
    assert a.task_ids == b.task_ids


@pytest.mark.parametrize("name", sorted(_ENGINES))
class TestAdapterDifferential:
    def test_run_bit_identical_to_engine(self, name, qlf_small):
        config = DateConfig(copy_prob_r=0.6)
        index = DatasetIndex(qlf_small)
        engine_result = _ENGINES[name](config).run(qlf_small, index=index)
        adapter_result = make_discoverer(name, date_config=config).run(
            qlf_small, index=index
        )
        _assert_same(engine_result, adapter_result)


@pytest.mark.parametrize("name", ("DATE", "ED"))
def test_lean_passes_through(name, qlf_small):
    config = DateConfig(copy_prob_r=0.6)
    index = DatasetIndex(qlf_small)
    engine_result = _ENGINES[name](config).run(qlf_small, index=index, lean=True)
    adapter_result = make_discoverer(name, date_config=config).run(
        qlf_small, index=index, lean=True
    )
    _assert_same(engine_result, adapter_result)
