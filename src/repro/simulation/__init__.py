"""Simulation harness: seeded multi-instance runs, sweeps, statistics.

The evaluation protocol of Sec. VII-A — "each measurement is averaged
over 100 instances" — lives here, decoupled from what is being
measured:

- :mod:`repro.simulation.config` — the experiment-level configuration
  (world shape × algorithm hyperparameters × instance count);
- :mod:`repro.simulation.runner` — run a metric function over seeded
  instances and aggregate;
- :mod:`repro.simulation.executor` — the deterministic fan-out
  (:func:`~repro.simulation.executor.parallel_imap`, in-process or over
  a spawn pool) behind every ``parallel=N`` knob, ledger or not;
- :mod:`repro.simulation.sweep` — parameter sweeps producing plot-ready
  series;
- :mod:`repro.simulation.metrics` — precision, copier detection,
  auction quality metrics;
- :mod:`repro.simulation.stats` — summary statistics with confidence
  intervals;
- :mod:`repro.simulation.timing` — wall-clock measurement helpers.
"""

from .config import ExperimentConfig
from .executor import available_cpus, parallel_map
from .metrics import (
    auction_report,
    copier_detection_report,
    precision,
)
from .runner import InstanceTable, run_instances
from .stats import SummaryStats, summarize
from .sweep import ExperimentResult, sweep_series
from .timing import Timer, timed

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "InstanceTable",
    "SummaryStats",
    "Timer",
    "auction_report",
    "available_cpus",
    "copier_detection_report",
    "parallel_map",
    "precision",
    "run_instances",
    "summarize",
    "sweep_series",
    "timed",
]
