"""Contract of the array-backed dependence results
(repro.core.engine.DependenceView).

The view replaced a dict of per-pair ``DependencePosterior`` objects, so
every test here compares it against that dict, built the old way.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import DATE
from repro.core.dependence import DependencePosterior
from repro.core.engine import (
    DependenceView,
    dependence_table,
    pairwise_dependence_arrays,
)
from repro.core.falsedist import UniformFalseValues
from repro.core.indexing import DatasetIndex


def _old_table(arrays, dependence):
    """The int-keyed dict ``dependence_table`` used to return."""
    return {
        (int(a), int(b)): DependencePosterior(p_a_to_b=float(ab), p_b_to_a=float(ba))
        for a, b, ab, ba in zip(
            arrays.pair_a, arrays.pair_b, dependence.p_ab, dependence.p_ba
        )
    }


@pytest.fixture
def pieces(qlf_small):
    index = DatasetIndex(qlf_small)
    arrays = index.arrays
    dependence = pairwise_dependence_arrays(
        arrays,
        arrays.majority_codes(),
        np.full(arrays.n_claims, 0.5),
        copy_prob_r=0.4,
        prior_alpha=0.2,
        collision=UniformFalseValues().collision_array(index),
    )
    view = dependence_table(arrays, dependence)
    return index, arrays, view, _old_table(arrays, dependence)


class TestDependenceView:
    def test_len_and_order_follow_pair_order(self, pieces):
        _index, arrays, view, old = pieces
        assert isinstance(view, DependenceView)
        assert len(view) == arrays.n_pairs == len(old)
        assert list(view) == list(zip(arrays.pair_a.tolist(), arrays.pair_b.tolist()))
        assert list(view) == list(old)
        assert list(view.keys()) == list(old.keys())
        assert list(view.values()) == list(old.values())
        assert list(view.items()) == list(old.items())

    def test_lookup_present_absent_and_reversed(self, pieces):
        index, _arrays, view, old = pieces
        key = next(iter(old))
        assert view[key] == old[key]
        assert key in view and view.get(key) == old[key]
        absent = (index.n_workers, index.n_workers + 1)
        assert absent not in view
        assert view.get(absent) is None
        assert view.get(absent, "fallback") == "fallback"
        with pytest.raises(KeyError):
            view[absent]
        # Keys are ordered pairs: the reversed key is absent, as in the dict.
        reversed_key = (key[1], key[0])
        assert reversed_key not in old
        assert reversed_key not in view
        assert view.get(reversed_key) is None
        with pytest.raises(KeyError):
            view[reversed_key]
        with pytest.raises(KeyError):
            old[reversed_key]

    def test_values_are_exact_floats(self, pieces):
        _index, _arrays, view, old = pieces
        for key, posterior in old.items():
            assert type(view[key].p_a_to_b) is float
            assert view[key].p_a_to_b == posterior.p_a_to_b
            assert view[key].p_b_to_a == posterior.p_b_to_a

    def test_equality_with_dict_both_directions(self, pieces):
        _index, _arrays, view, old = pieces
        assert view == old and old == view
        assert not (view != old) and not (old != view)
        changed = dict(old)
        key = next(iter(changed))
        changed[key] = DependencePosterior(p_a_to_b=0.5, p_b_to_a=0.25)
        assert view != changed and changed != view
        shorter = dict(old)
        del shorter[key]
        assert view != shorter and shorter != view
        assert view != {} and {} != view

    def test_read_only(self, pieces):
        _index, arrays, view, old = pieces
        key = next(iter(old))
        with pytest.raises(TypeError):
            view[key] = old[key]
        with pytest.raises(TypeError):
            del view[key]
        with pytest.raises(ValueError):
            view.p_ab[0] = 0.0
        with pytest.raises(ValueError):
            view.pair_a[0] = 0
        # The kernels' own arrays stay writeable.
        assert arrays.pair_a.flags.writeable

    def test_rekeyed_matches_old_worker_id_dict(self, pieces):
        index, _arrays, view, old = pieces
        ids = tuple(index.worker_ids)
        rekeyed = view.rekeyed(ids)
        expected = {(ids[a], ids[b]): posterior for (a, b), posterior in old.items()}
        assert list(rekeyed.items()) == list(expected.items())
        assert rekeyed == expected
        assert np.shares_memory(rekeyed.p_ab, view.p_ab)

    def test_pickle_round_trip(self, pieces):
        index, _arrays, view, old = pieces
        for original in (view, view.rekeyed(tuple(index.worker_ids))):
            original.get(next(iter(original)))  # build the lazy position dict
            restored = pickle.loads(pickle.dumps(original))
            assert isinstance(restored, DependenceView)
            assert list(restored.items()) == list(original.items())
        assert pickle.loads(pickle.dumps(view)) == old

    def test_empty_view(self):
        view = DependenceView([], [], [], [], ())
        assert len(view) == 0 and list(view) == []
        assert view == {} and {} == view
        assert ("a", "b") not in view

    def test_date_result_is_a_worker_id_view(self, qlf_small):
        result = DATE().run(qlf_small)
        assert isinstance(result.dependence, DependenceView)
        assert result.dependence.ids == result.worker_ids
        a, b = next(iter(result.dependence))
        assert result.worker_ids.index(a) < result.worker_ids.index(b)
