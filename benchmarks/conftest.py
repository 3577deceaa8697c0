"""Shared benchmark infrastructure.

Run with::

    pytest benchmarks/ --benchmark-only

Each benchmark regenerates one paper table/figure via the experiment
registry at a reduced-but-faithful scale (``BENCH_SCALE``), prints the
reproduced rows/series next to the paper's expectation, and asserts the
qualitative *shape* (who wins, directions of trends).  Timings reported
by pytest-benchmark are the cost of regenerating the artifact.  The
performance record of this repository is ``perfbench/``, not these
timings.
"""

from __future__ import annotations

import pytest

from repro.experiments import ScalePreset
from repro.reporting import render_result_table
from repro.simulation.sweep import ExperimentResult

#: Reduced scale for benchmark runs: same claim density (~20 claims per
#: task at full size), same copier fraction (25%), smaller dimensions.
BENCH_SCALE = ScalePreset(
    name="bench",
    n_tasks=60,
    n_workers=40,
    n_copiers=10,
    target_claims=1200,
    instances=2,
)

#: Seed shared by all benchmarks.
BENCH_SEED = 42


@pytest.fixture(scope="session")
def bench_scale() -> ScalePreset:
    return BENCH_SCALE


def report(result: ExperimentResult) -> None:
    """Print the regenerated table (shown with pytest -s)."""
    print()
    print(render_result_table(result))


def series_mean(result: ExperimentResult, name: str) -> float:
    values = result.y(name)
    return sum(values) / len(values)
