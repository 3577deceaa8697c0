"""Registry semantics and Prometheus exposition (DESIGN.md §13).

These tests pin the instrumentation core's contract: the disabled
registry hands out the shared no-op stub, enabled families enforce
kind/label consistency, counters are monotone, and the exposition
renders the exact text format Prometheus scrapes (label escaping,
cumulative buckets, ``+Inf`` == count, integers without a decimal
point).
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    NULL,
    MetricsRegistry,
    get_registry,
    render_prometheus,
    set_registry,
)


class TestDisabledRegistry:
    def test_disabled_getters_return_the_shared_null_stub(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("c") is NULL
        assert registry.gauge("g") is NULL
        assert registry.histogram("h") is NULL
        assert registry.timer("t") is NULL

    def test_null_stub_is_inert_and_falsy(self):
        assert not NULL
        NULL.inc()
        NULL.dec()
        NULL.set(3.0)
        NULL.observe(1.0)
        with NULL.time():
            pass
        assert NULL.value == 0.0
        assert NULL.snapshot() == ((), 0.0, 0)

    def test_disabled_registry_registers_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc()
        assert registry.collect() == []
        assert render_prometheus(registry) == ""

    def test_enable_affects_the_next_binding(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("c") is NULL
        registry.enable()
        counter = registry.counter("c")
        assert counter is not NULL
        counter.inc()
        assert counter.value == 1.0


class TestRegistrySemantics:
    def _registry(self) -> MetricsRegistry:
        return MetricsRegistry(enabled=True)

    def test_same_name_and_labels_is_the_same_series(self):
        registry = self._registry()
        a = registry.counter("hits", labels={"route": "/x"})
        b = registry.counter("hits", labels={"route": "/x"})
        assert a is b
        a.inc()
        b.inc(2)
        assert a.value == 3.0

    def test_distinct_label_values_are_independent_series(self):
        registry = self._registry()
        registry.counter("hits", labels={"route": "/x"}).inc()
        registry.counter("hits", labels={"route": "/y"}).inc(5)
        (family,) = registry.collect()
        assert {s.value for s in family.series.values()} == {1.0, 5.0}

    def test_kind_conflict_raises(self):
        registry = self._registry()
        registry.counter("m")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.gauge("m")

    def test_label_name_conflict_raises(self):
        registry = self._registry()
        registry.counter("m", labels={"a": "1"})
        with pytest.raises(ConfigurationError, match="labels"):
            registry.counter("m", labels={"b": "1"})

    def test_counter_is_monotone(self):
        registry = self._registry()
        counter = registry.counter("c")
        counter.inc(0)
        counter.inc(2.5)
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            counter.inc(-1)
        assert counter.value == 2.5

    def test_gauge_moves_both_ways(self):
        gauge = self._registry().gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7.0

    def test_histogram_buckets_are_sorted_deduped_upper_bounds(self):
        registry = self._registry()
        histogram = registry.histogram("h", buckets=(5.0, 1.0, 5.0, 2.0))
        assert histogram.bounds == (1.0, 2.0, 5.0)
        for value in (0.5, 1.0, 1.5, 100.0):
            histogram.observe(value)
        counts, total, count = histogram.snapshot()
        # le-style: 1.0 lands in the first bucket (bounds are inclusive
        # upper limits), 100.0 overflows into +Inf.
        assert counts == (2, 1, 0, 1)
        assert count == 4
        assert total == pytest.approx(103.0)

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(ConfigurationError, match="bucket"):
            self._registry().histogram("h", buckets=())

    def test_timer_uses_duration_buckets_and_observes_elapsed(self):
        registry = self._registry()
        timer = registry.timer("t")
        assert timer.bounds == tuple(sorted(DEFAULT_TIME_BUCKETS))
        with timer.time():
            pass
        assert timer.count == 1
        assert timer.total >= 0.0

    def test_concurrent_increments_do_not_lose_updates(self):
        registry = self._registry()
        counter = registry.counter("c")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000.0

    def test_as_dict_snapshot(self):
        registry = self._registry()
        registry.counter("c", "help text").inc(2)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        payload = registry.as_dict()
        assert payload["c"]["kind"] == "counter"
        assert payload["c"]["help"] == "help text"
        assert payload["c"]["series"][0]["value"] == 2.0
        assert payload["h"]["series"][0]["counts"] == [0, 1, 0]
        assert payload["h"]["series"][0]["count"] == 1

    def test_reset_drops_families_but_keeps_enabled(self):
        registry = self._registry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.collect() == []
        assert registry.enabled

    def test_bound_instruments_are_built_once_until_a_series_goes(self):
        registry = self._registry()
        builds = []

        def build(reg):
            builds.append(reg)
            return (reg.counter("bound_total"), reg.counter("per_x", labels={"x": "1"}))

        first = registry.bound(build)
        assert registry.bound(build) is first and len(builds) == 1
        registry.drop_labels("x", "2")  # drops nothing: the binding stays
        assert registry.bound(build) is first
        registry.drop_labels("x", "1")
        second = registry.bound(build)
        assert len(builds) == 2 and second[1] is not first[1]
        registry.reset()
        third = registry.bound(build)
        third[0].inc()
        assert len(builds) == 3 and registry.as_dict()["bound_total"]["series"][0]["value"] == 1.0
        disabled = MetricsRegistry(enabled=False)
        assert disabled.bound(build) == (NULL, NULL) and disabled.bound(build) is not None
        assert len(builds) == 5


class TestProcessRegistry:
    def test_set_registry_swaps_and_returns_previous(self):
        replacement = MetricsRegistry(enabled=True)
        previous = set_registry(replacement)
        try:
            assert get_registry() is replacement
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestPrometheusExposition:
    def _registry(self) -> MetricsRegistry:
        return MetricsRegistry(enabled=True)

    def test_counter_rendering_with_help_and_type(self):
        registry = self._registry()
        registry.counter("requests_total", "Requests served.").inc(3)
        text = render_prometheus(registry)
        assert "# HELP requests_total Requests served." in text
        assert "# TYPE requests_total counter" in text
        assert "\nrequests_total 3\n" in text

    def test_integer_values_render_without_decimal_point(self):
        registry = self._registry()
        registry.gauge("g").set(4.0)
        assert "\ng 4\n" in "\n" + render_prometheus(registry)

    def test_float_values_render_via_repr(self):
        registry = self._registry()
        registry.gauge("g").set(0.25)
        assert "g 0.25" in render_prometheus(registry)

    def test_label_values_are_escaped(self):
        registry = self._registry()
        registry.counter(
            "c", labels={"path": 'a"b\\c\nd'}
        ).inc()
        text = render_prometheus(registry)
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_help_text_escapes_newline_and_backslash(self):
        registry = self._registry()
        registry.counter("c", "line1\nline2 \\ slash").inc()
        assert "# HELP c line1\\nline2 \\\\ slash" in render_prometheus(registry)

    def test_labels_render_in_sorted_name_order(self):
        registry = self._registry()
        registry.counter("c", labels={"z": "1", "a": "2"}).inc()
        assert 'c{a="2",z="1"} 1' in render_prometheus(registry)

    def test_histogram_buckets_are_cumulative_and_inf_equals_count(self):
        registry = self._registry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        text = render_prometheus(registry)
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 5.55" in text
        assert "lat_count 3" in text

    def test_histogram_bucket_labels_merge_with_series_labels(self):
        registry = self._registry()
        registry.histogram(
            "lat", labels={"route": "/x"}, buckets=(1.0,)
        ).observe(0.5)
        text = render_prometheus(registry)
        assert 'lat_bucket{route="/x",le="1"} 1' in text
        assert 'lat_sum{route="/x"} 0.5' in text

    def test_families_render_in_name_order(self):
        registry = self._registry()
        registry.counter("zzz").inc()
        registry.counter("aaa").inc()
        text = render_prometheus(registry)
        assert text.index("aaa") < text.index("zzz")

    def test_output_ends_with_single_trailing_newline(self):
        registry = self._registry()
        registry.counter("c").inc()
        text = render_prometheus(registry)
        assert text.endswith("\n")
        assert not text.endswith("\n\n")


class TestDropLabels:
    """Series retirement: evicted entities must not leak label cardinality."""

    def test_drops_every_series_matching_the_label_value(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("ingests", labels={"campaign": "a"}).inc()
        registry.counter("ingests", labels={"campaign": "b"}).inc()
        registry.timer("latency", labels={"campaign": "a"}).observe(0.1)
        dropped = registry.drop_labels("campaign", "a")
        assert dropped == 2
        remaining = {
            instrument.labels["campaign"]
            for family in registry.collect()
            for instrument in family.series.values()
            if "campaign" in instrument.labels
        }
        assert remaining == {"b"}

    def test_families_without_the_label_are_untouched(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("total").inc()
        registry.counter("by_route", labels={"route": "/x"}).inc()
        assert registry.drop_labels("campaign", "a") == 0
        assert registry.counter("total").value == 1.0

    def test_dropped_series_restart_from_zero(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("ingests", labels={"campaign": "a"}).inc(5)
        registry.drop_labels("campaign", "a")
        # A recreated campaign with the same id gets a fresh series.
        assert registry.counter("ingests", labels={"campaign": "a"}).value == 0.0

    def test_dropped_series_vanish_from_exposition(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("ingests", labels={"campaign": "gone"}).inc()
        registry.drop_labels("campaign", "gone")
        assert 'campaign="gone"' not in render_prometheus(registry)

    def test_disabled_registry_drop_is_a_harmless_no_op(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.drop_labels("campaign", "a") == 0
