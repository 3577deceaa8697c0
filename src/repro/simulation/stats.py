"""Summary statistics for repeated-instance measurements.

Every number the harness reports is an average over seeded instances
(Sec. VII-A averages over 100); :class:`SummaryStats` carries the mean
together with its spread and a Student-t 95% confidence interval so
EXPERIMENTS.md can state how stable each reproduced trend is.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["SummaryStats", "summarize"]


@dataclass(frozen=True)
class SummaryStats:
    """Mean, spread, and 95% CI of one measured quantity."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci95_low: float
    ci95_high: float

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of the 95% confidence interval."""
        return (self.ci95_high - self.ci95_low) / 2.0

    def __str__(self) -> str:
        return f"{self.mean:.4f} ± {self.ci95_halfwidth:.4f} (n={self.n})"


def summarize(values: Sequence[float]) -> SummaryStats:
    """Summarize a sample; the CI uses Student's t (exact mean for n=1)."""
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(data.mean())
    if data.size == 1:
        return SummaryStats(
            n=1,
            mean=mean,
            std=0.0,
            minimum=mean,
            maximum=mean,
            ci95_low=mean,
            ci95_high=mean,
        )
    std = float(data.std(ddof=1))
    sem = std / np.sqrt(data.size)
    if sem == 0.0:
        low = high = mean
    else:
        from scipy import stats as scipy_stats

        t_crit = float(scipy_stats.t.ppf(0.975, df=data.size - 1))
        low, high = mean - t_crit * sem, mean + t_crit * sem
    return SummaryStats(
        n=int(data.size),
        mean=mean,
        std=std,
        minimum=float(data.min()),
        maximum=float(data.max()),
        ci95_low=float(low),
        ci95_high=float(high),
    )
