"""Process-wide instrumentation core: counters, gauges, histograms, timers.

Design contract (DESIGN.md §13): instrumentation must cost ~nothing
when it is off.  The single :class:`MetricsRegistry` is **disabled by
default**; while disabled, every instrument getter returns the shared
:data:`NULL` stub whose methods are no-ops, so a call site binds its
instruments once per operation (per run, per request — never per hot
loop step) and the hot path pays one attribute call on a no-op.
Toggling the registry affects the *next* operation to bind, which is
what lets the property suite pin instrumented runs bit-identical to
uninstrumented ones: instruments only ever observe values, they never
feed back into the computation.

Instruments are named series: a *family* is ``(name, kind, help, label
names)`` and each distinct label-value assignment is one series, so
``registry.counter("http_requests_total", labels={"route": "/health"})``
and the same name with ``route="/campaigns"`` are two independently
incremented values under one family — exactly the Prometheus data
model :func:`repro.obs.exposition.render_prometheus` exports.

Every instrument is thread-safe (one lock per series; the streaming
service increments from request threads), and the registry itself is
safe to call concurrently.  ``REPRO_METRICS=1`` in the environment
enables the process registry at first use — how the CI smoke jobs and
one-off CLI runs switch telemetry on without code changes.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "NULL",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "enabled",
    "get_registry",
    "set_registry",
]

#: Default histogram buckets for durations in seconds — spans the
#: microsecond kernel phases through multi-second full experiments.
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Default buckets for generic value histograms (posterior deltas,
#: utilizations, ...): log-ish coverage of (0, 1] plus a few above.
DEFAULT_VALUE_BUCKETS = (
    1e-9, 1e-6, 1e-4, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 10.0, 100.0,
)


class _Instrument:
    """Shared identity of one series: name, static labels, a lock."""

    kind = "untyped"

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()


class Counter(_Instrument):
    """A monotonically increasing value (Prometheus ``counter``)."""

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, str]):
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A value that can go up and down (Prometheus ``gauge``)."""

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, str]):
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Fixed-bucket distribution of observed values.

    Buckets are upper bounds, fixed at family registration; counts are
    stored per-bucket (non-cumulative) and cumulated only at export
    time, so ``observe`` is one bisect + two adds under the lock.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        buckets: tuple[float, ...] = DEFAULT_VALUE_BUCKETS,
    ):
        super().__init__(name, labels)
        bounds = tuple(sorted(set(float(b) for b in buckets)))
        if not bounds:
            raise ConfigurationError(f"histogram {name!r} needs >= 1 bucket")
        self.bounds = bounds
        # counts[i] = observations in (bounds[i-1], bounds[i]];
        # counts[-1] is the +Inf overflow bucket.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value

    def time(self) -> "Timer":
        """A context manager observing its elapsed seconds here."""
        return Timer(self)

    def snapshot(self) -> tuple[tuple[int, ...], float, int]:
        """``(per-bucket counts, sum, total count)`` — one consistent read."""
        with self._lock:
            counts = tuple(self._counts)
            return counts, self._sum, sum(counts)

    @property
    def count(self) -> int:
        return self.snapshot()[2]

    @property
    def total(self) -> float:
        return self.snapshot()[1]


class Timer:
    """Context manager that feeds elapsed seconds into a histogram."""

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class _NullInstrument:
    """The disabled-registry stub: every instrument API, all no-ops.

    One shared instance stands in for counters, gauges, histograms and
    timers alike, so a call site never branches on whether telemetry is
    on — it calls the same methods either way.
    """

    kind = "null"
    name = ""
    labels: dict[str, str] = {}
    bounds: tuple[float, ...] = ()
    value = 0.0
    count = 0
    total = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> "_NullInstrument":
        return self

    def snapshot(self):
        return (), 0.0, 0

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def __bool__(self) -> bool:
        # `if reg.counter(...)` reads as "is telemetry live here".
        return False


#: The process-wide no-op instrument.
NULL = _NullInstrument()


@dataclass
class _Family:
    """One named metric family: kind + help + its labelled series."""

    name: str
    kind: str
    help: str
    label_names: tuple[str, ...]
    buckets: tuple[float, ...] | None
    series: dict[tuple[str, ...], _Instrument]


class MetricsRegistry:
    """Thread-safe registry of named instrument families.

    ``enabled=False`` (the default) makes every getter return
    :data:`NULL`; nothing is registered and nothing is recorded.  The
    process-wide instance lives behind :func:`get_registry`.
    """

    def __init__(self, enabled: bool = False):
        self._enabled = enabled
        self._families: dict[str, _Family] = {}
        self._bound: dict = {}
        self._lock = threading.Lock()

    # -- switching -------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop every family (test isolation; enabled state unchanged)."""
        with self._lock:
            self._families.clear()
            self._bound.clear()

    def bound(self, build):
        """``build(self)``, built once and kept until :meth:`reset` or
        :meth:`drop_labels` drops a series.

        For callers that look the same instruments up on every call (a
        DATE run binds eleven): the lookups run once per registry, not
        once per call.  Two threads may both build on a first call; the
        first kept is returned to both, and its series are the same.  A
        disabled registry returns ``build(self)`` and keeps nothing.
        """
        if not self._enabled:
            return build(self)
        instruments = self._bound.get(build)
        if instruments is None:
            instruments = build(self)
            with self._lock:
                instruments = self._bound.setdefault(build, instruments)
        return instruments

    # -- instrument getters ----------------------------------------------

    def counter(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Counter | _NullInstrument:
        return self._series(name, "counter", help, labels, None)

    def gauge(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Gauge | _NullInstrument:
        return self._series(name, "gauge", help, labels, None)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        buckets: tuple[float, ...] = DEFAULT_VALUE_BUCKETS,
    ) -> Histogram | _NullInstrument:
        if not buckets:
            raise ConfigurationError(f"histogram {name!r} needs >= 1 bucket")
        return self._series(name, "histogram", help, labels, tuple(buckets))

    def timer(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Histogram | _NullInstrument:
        """A histogram pre-bucketed for durations; use ``.time()``."""
        return self._series(
            name, "histogram", help, labels, DEFAULT_TIME_BUCKETS
        )

    def _series(
        self,
        name: str,
        kind: str,
        help: str,
        labels: dict[str, str] | None,
        buckets: tuple[float, ...] | None,
    ):
        if not self._enabled:
            return NULL
        labels = {k: str(v) for k, v in (labels or {}).items()}
        label_names = tuple(sorted(labels))
        key = tuple(labels[k] for k in label_names)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(
                    name=name,
                    kind=kind,
                    help=help,
                    label_names=label_names,
                    buckets=buckets,
                    series={},
                )
                self._families[name] = family
            elif family.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"requested {kind}"
                )
            elif family.label_names != label_names:
                raise ConfigurationError(
                    f"metric {name!r} registered with labels "
                    f"{list(family.label_names)}, requested {list(label_names)}"
                )
            instrument = family.series.get(key)
            if instrument is None:
                if kind == "counter":
                    instrument = Counter(name, labels)
                elif kind == "gauge":
                    instrument = Gauge(name, labels)
                else:
                    instrument = Histogram(
                        name, labels, family.buckets or DEFAULT_VALUE_BUCKETS
                    )
                family.series[key] = instrument
        return instrument

    def drop_labels(self, label: str, value: str) -> int:
        """Drop every series whose ``label`` equals ``value``; return count.

        Per-entity labels (``campaign=...``) leak series when entities
        are evicted: a long-lived server would export counters for
        campaigns that no longer exist and its label cardinality would
        grow without bound.  Callers retiring an entity drop its series
        here; families themselves stay registered (an empty family
        exports nothing).
        """
        value = str(value)
        dropped = 0
        with self._lock:
            for family in self._families.values():
                if label not in family.label_names:
                    continue
                idx = family.label_names.index(label)
                doomed = [
                    key for key in family.series if key[idx] == value
                ]
                for key in doomed:
                    del family.series[key]
                dropped += len(doomed)
            if dropped:
                self._bound.clear()
        return dropped

    # -- reading ---------------------------------------------------------

    def collect(self) -> list[_Family]:
        """Families sorted by name (series maps are live references)."""
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def as_dict(self) -> dict:
        """JSON-safe snapshot of every series (the ``--json`` CLI view)."""
        payload: dict[str, dict] = {}
        for family in self.collect():
            series = []
            for instrument in family.series.values():
                entry: dict = {"labels": dict(instrument.labels)}
                if isinstance(instrument, Histogram):
                    counts, total, count = instrument.snapshot()
                    entry.update(
                        buckets=list(instrument.bounds),
                        counts=list(counts),
                        sum=total,
                        count=count,
                    )
                else:
                    entry["value"] = instrument.value
                series.append(entry)
            payload[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        return payload


_REGISTRY: MetricsRegistry | None = None
_REGISTRY_LOCK = threading.Lock()


def _env_enabled() -> bool:
    return os.environ.get("REPRO_METRICS", "").strip().lower() not in (
        "", "0", "false", "off",
    )


def get_registry() -> MetricsRegistry:
    """The process-wide registry (created on first use).

    ``REPRO_METRICS=1`` in the environment makes it start enabled.
    """
    global _REGISTRY
    registry = _REGISTRY
    if registry is None:
        with _REGISTRY_LOCK:
            registry = _REGISTRY
            if registry is None:
                registry = MetricsRegistry(enabled=_env_enabled())
                _REGISTRY = registry
    return registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        previous = _REGISTRY
        if previous is None:
            previous = MetricsRegistry(enabled=_env_enabled())
        _REGISTRY = registry
    return previous


def enabled() -> bool:
    """Whether the process-wide registry is currently recording."""
    return get_registry().enabled
