"""Parameter sweeps and the plot-ready :class:`ExperimentResult`.

Every figure in the paper is a sweep: precision vs. r, social cost vs.
number of tasks, utility vs. declared bid.  :func:`sweep_series` runs a
point function over an x-grid and assembles named y-series;
:class:`ExperimentResult` is the common currency between the experiment
runners, the ASCII reporting layer, the CSV/JSON export, and the run
ledger (:mod:`repro.artifacts`), which stores results via
:meth:`ExperimentResult.to_payload` and replays them via
:meth:`ExperimentResult.from_payload`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import ConfigurationError
from .executor import parallel_imap

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..artifacts import RunKey, RunLedger

__all__ = ["ExperimentResult", "sweep_series"]

#: Point function: x value -> {series name: y value}.
PointFn = Callable[[float], Mapping[str, float]]


def _jsonable(value: object) -> object:
    """Coerce meta values to JSON-safe equivalents (lossless for the
    scalar types experiments actually store; everything else
    stringifies)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


@dataclass(frozen=True)
class ExperimentResult:
    """One reproduced table/figure: named series over a shared x-grid.

    ``meta`` carries free-form provenance (instances, seeds, paper
    expectations) that the reporting layer prints alongside the data.
    """

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    x_values: tuple[float, ...]
    series: dict[str, tuple[float, ...]]
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, ys in self.series.items():
            if len(ys) != len(self.x_values):
                raise ValueError(
                    f"series {name!r} has {len(ys)} points for "
                    f"{len(self.x_values)} x values"
                )

    @property
    def series_names(self) -> list[str]:
        return list(self.series)

    def y(self, name: str) -> tuple[float, ...]:
        """One series by name."""
        return self.series[name]

    def rows(self) -> list[tuple[float, ...]]:
        """Row-major view: one row per x value, columns in series order."""
        names = self.series_names
        return [
            (x, *(self.series[name][k] for name in names))
            for k, x in enumerate(self.x_values)
        ]

    def to_payload(self) -> dict[str, Any]:
        """Lower to a JSON-safe dict (exact floats; the JSON export and
        the run ledger both store this form)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "x_values": list(self.x_values),
            "series": {name: list(ys) for name, ys in self.series.items()},
            # Declared explicitly because the stored JSON sorts keys;
            # CSV column order (and rows()/series_names) must survive
            # the round trip bit-identically.
            "series_order": list(self.series),
            "meta": {k: _jsonable(v) for k, v in self.meta.items()},
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild from :meth:`to_payload` output (x/series bit-exact)."""
        series_payload = payload["series"]
        order = payload.get("series_order") or list(series_payload)
        return cls(
            experiment_id=str(payload["experiment_id"]),
            title=str(payload["title"]),
            x_label=str(payload["x_label"]),
            y_label=str(payload["y_label"]),
            x_values=tuple(payload["x_values"]),
            series={name: tuple(series_payload[name]) for name in order},
            meta=dict(payload.get("meta", {})),
        )


def sweep_series(
    experiment_id: str,
    title: str,
    x_label: str,
    y_label: str,
    x_values: Sequence[float],
    point_fn: PointFn,
    *,
    meta: Mapping[str, object] | None = None,
    parallel: int | None = 1,
    ledger: "RunLedger | None" = None,
    key: "RunKey | None" = None,
) -> ExperimentResult:
    """Evaluate ``point_fn`` over ``x_values`` and bundle the series.

    Every point must report the same series names; missing names raise
    immediately with the offending x value for easy debugging.
    ``parallel=N`` evaluates the grid points over an N-worker process
    pool (``point_fn`` must then be picklable); the assembled result is
    bit-identical to the serial sweep because every point derives its
    own seeds from the x value, never from evaluation order.

    ``ledger`` + ``key`` make the sweep resumable at *point*
    granularity: each evaluated point is persisted under the
    fingerprint of ``(key, x)``, already-banked points are read back
    instead of recomputed, and only the missing grid points run
    (serially or over the pool).  An interrupted sweep therefore
    resumes at the first unevaluated x.  Without a ledger every point
    is missing and the same loop runs, reading and banking nothing.
    """
    x_values = tuple(x_values)
    if not x_values:
        raise ValueError("x_values must be non-empty")
    if ledger is not None and key is None:
        raise ConfigurationError(
            "sweep_series got a ledger but no key declaring the work"
        )

    points: list[dict[str, float] | None] = [
        None if ledger is None else ledger.get_point(key, x)
        for x in x_values
    ]
    missing = [i for i, point in enumerate(points) if point is None]
    # Bank each point as it completes so an interrupted sweep resumes
    # at the first unevaluated grid point.
    computed = parallel_imap(
        point_fn, [x_values[i] for i in missing], parallel=parallel
    )
    for i, raw in zip(missing, computed):
        point = {name: float(v) for name, v in dict(raw).items()}
        points[i] = point
        if ledger is not None:
            ledger.put_point(key, x_values[i], point)

    collected: dict[str, list[float]] = {}
    names: list[str] | None = None
    for x, raw in zip(x_values, points):
        point = dict(raw)
        if names is None:
            names = sorted(point)
            collected = {name: [] for name in names}
        if sorted(point) != names:
            raise ValueError(
                f"point at x={x} reported series {sorted(point)}, "
                f"expected {names}"
            )
        for name in names:
            collected[name].append(float(point[name]))
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        x_label=x_label,
        y_label=y_label,
        x_values=x_values,
        series={name: tuple(ys) for name, ys in collected.items()},
        meta=dict(meta or {}),
    )
