"""Repetition statistics: mean, spread, and confidence intervals.

"SoK: The Faults in our Graph Benchmarks" catalogs single-run
measurements and variance-free reporting as two of the most common
ways graph benchmarks mislead. This module is the statistical layer
the audit rules check for: every benchmark cell that runs more than
one repetition summarizes its runtimes as a :class:`RuntimeStats` —
sample mean, sample standard deviation, and a two-sided 95%
confidence interval on the mean (Student's t) — which the results
database stores, the reports render as ``mean ±std``, and the
``graphalytics analyze`` regression gate uses instead of a bare
percentage threshold whenever both sides carry repetition stats.

The t critical values are a fixed table (df 1..30, then the normal
asymptote); the math is pure Python so the statistics are exactly
reproducible across platforms and numpy versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["RuntimeStats", "t_critical_95"]

#: Two-sided 95% Student-t critical values by degrees of freedom.
_T_95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
    2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
    2.048, 2.045, 2.042,
)

#: Normal-approximation critical value used beyond the table.
_Z_95 = 1.960


def t_critical_95(degrees_of_freedom: int) -> float:
    """Two-sided 95% Student-t critical value for a sample mean."""
    if degrees_of_freedom < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if degrees_of_freedom <= len(_T_95):
        return _T_95[degrees_of_freedom - 1]
    return _Z_95


@dataclass(frozen=True)
class RuntimeStats:
    """Summary statistics of one cell's repetition runtimes.

    ``std`` is the sample standard deviation (``ddof=1``); for a
    single repetition it is 0 and the confidence interval collapses
    to the mean — a degenerate interval the audit rules treat as "no
    variance information", not as perfect precision. Identical
    samples (every fault-free cell, whose repetitions are derived from
    one execution) are exact determinism: their mean is the sample
    itself and their std is exactly 0.
    """

    n: int
    mean: float
    std: float
    ci95_low: float
    ci95_high: float

    @classmethod
    def from_samples(cls, samples: Sequence[float] | Iterable[float]) -> "RuntimeStats | None":
        """Statistics of a runtime sample; ``None`` for an empty one."""
        values = [float(value) for value in samples]
        if not values:
            return None
        n = len(values)
        if all(value == values[0] for value in values):
            # ``sum/n`` of n equal floats can land one ulp off the
            # value (and manufacture a ~1e-15 std); equal samples have
            # exactly their own value as mean and exactly no spread.
            return cls.from_moments(values[0], 0.0, n)
        mean = sum(values) / n
        variance = sum((value - mean) ** 2 for value in values) / (n - 1)
        return cls.from_moments(mean, math.sqrt(variance), n)

    @classmethod
    def from_moments(cls, mean: float, std: float, n: int) -> "RuntimeStats":
        """Rebuild statistics from stored ``(mean, std, n)`` columns.

        This is how the analyze gate and the audit rules recover the
        confidence interval from a results-database row without the
        raw repetition runtimes.
        """
        if n < 1:
            raise ValueError("sample size must be >= 1")
        mean = float(mean)
        std = float(std)
        if n < 2 or std <= 0.0:
            return cls(n=n, mean=mean, std=max(std, 0.0),
                       ci95_low=mean, ci95_high=mean)
        half_width = t_critical_95(n - 1) * std / math.sqrt(n)
        return cls(
            n=n,
            mean=mean,
            std=std,
            ci95_low=mean - half_width,
            ci95_high=mean + half_width,
        )

    @property
    def half_width(self) -> float:
        """Half-width of the 95% confidence interval."""
        return (self.ci95_high - self.ci95_low) / 2.0

    @property
    def has_spread(self) -> bool:
        """Whether the sample carries real variance information.

        Needs both repetitions and a non-zero std: a zero-spread
        sample (one run, or identical runs) has nothing to show.
        """
        return self.n >= 2 and self.std > 0.0

    def overlaps(self, other: "RuntimeStats") -> bool:
        """Whether the two 95% confidence intervals overlap.

        Overlapping intervals mean the difference between the two
        means is within measurement noise: ranking the two runs
        against each other is not statistically supported.
        """
        return (
            self.ci95_low <= other.ci95_high
            and other.ci95_low <= self.ci95_high
        )

    def describe(self) -> str:
        """Human-readable ``mean ±std (n=..)`` summary."""
        if self.n < 2:
            return f"{self.mean:g} (n=1)"
        return f"{self.mean:g} ±{self.std:.3g} (n={self.n})"
