"""Pluggable degree distributions for Datagen.

The paper: "In its current version, Datagen supports only a single
distribution following that observed by the engineers of Facebook.
[...] we have extended Datagen with the capability to dynamically
reproduce different distributions by means of plugins. We have already
implemented those for the Zeta and Geometric distribution models [...]
Furthermore, for those graphs whose distributions cannot be
theoretically modeled, we have implemented a plugin to feed Datagen
with empirical data."

Each plugin deterministically assigns a *target degree* to every
person. The Figure 1 experiment verifies that graphs generated from
the Zeta(alpha=1.7) and Geometric(p=0.12) plugins reproduce the
theoretical frequency curves.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

__all__ = [
    "DegreeDistribution",
    "FacebookDistribution",
    "ZetaDistribution",
    "GeometricDistribution",
    "WeibullDistribution",
    "EmpiricalDistribution",
    "distribution_from_name",
]


class DegreeDistribution(abc.ABC):
    """Plugin interface: assigns target degrees to persons."""

    #: Registry name used in configuration files.
    name: str = ""

    @abc.abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` target degrees (integers >= 0)."""

    def mean(self) -> float:
        """Theoretical mean degree, if finite; ``nan`` otherwise."""
        return float("nan")

    def expected_pmf(self, degrees: np.ndarray) -> np.ndarray:
        """Theoretical P(degree = k); zero outside the support.

        Used by the Figure 1 comparison of generated frequencies
        against the model curve. Subclasses without a closed form may
        leave the default (all zeros).
        """
        return np.zeros_like(np.asarray(degrees, dtype=np.float64))


class ZetaDistribution(DegreeDistribution):
    """Discrete power law: P(k) ∝ k^-alpha, support k >= 1.

    The paper's Figure 1 uses alpha = 1.7. Degrees are capped at
    ``max_degree`` to keep generated graphs processable (the real
    Datagen similarly bounds the friend count).
    """

    name = "zeta"

    def __init__(self, alpha: float = 1.7, max_degree: int = 1000):
        if alpha <= 1.0:
            raise ValueError("zeta exponent must be > 1")
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        self.alpha = alpha
        self.max_degree = max_degree
        support = np.arange(1, max_degree + 1, dtype=np.float64)
        weights = support ** (-alpha)
        self._support = support.astype(np.int64)
        self._pmf = weights / np.sum(weights)
        self._cdf = np.cumsum(self._pmf)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw target degrees (see :class:`DegreeDistribution`)."""
        draws = rng.random(n)
        return self._support[np.searchsorted(self._cdf, draws)]

    def mean(self) -> float:
        """Theoretical mean degree."""
        return float(np.sum(self._support * self._pmf))

    def expected_pmf(self, degrees: np.ndarray) -> np.ndarray:
        """Theoretical P(degree = k) on the support."""
        from scipy.special import zeta

        degrees = np.asarray(degrees, dtype=np.float64)
        out = np.zeros_like(degrees)
        valid = (degrees >= 1) & (degrees <= self.max_degree)
        # Use the untruncated form for comparison, as the paper plots
        # the theoretical Zeta curve.
        out[valid] = degrees[valid] ** (-self.alpha) / zeta(self.alpha, 1)
        return out


class GeometricDistribution(DegreeDistribution):
    """Geometric degrees: P(k) = (1-p)^(k-1) p, support k >= 1.

    The paper's Figure 1 uses p = 0.12.
    """

    name = "geometric"

    def __init__(self, p: float = 0.12):
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        self.p = p

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw target degrees (see :class:`DegreeDistribution`)."""
        return rng.geometric(self.p, size=n).astype(np.int64)

    def mean(self) -> float:
        """Theoretical mean degree."""
        return 1.0 / self.p

    def expected_pmf(self, degrees: np.ndarray) -> np.ndarray:
        """Theoretical P(degree = k) on the support."""
        degrees = np.asarray(degrees, dtype=np.float64)
        out = np.zeros_like(degrees)
        valid = degrees >= 1
        out[valid] = (1 - self.p) ** (degrees[valid] - 1) * self.p
        return out


class FacebookDistribution(DegreeDistribution):
    """Datagen's default: the Facebook-like degree distribution.

    Ugander et al. (*The anatomy of the Facebook social graph*, 2011)
    report a right-skewed distribution with a heavy-but-bounded tail.
    We model it as a discretized log-normal, parameterized by its
    median degree, which matches the published shape closely enough
    for benchmarking purposes and — like the original — scales the
    typical degree with network size via ``median_degree``.
    """

    name = "facebook"

    def __init__(self, median_degree: float = 30.0, sigma: float = 0.9,
                 max_degree: int = 5000):
        if median_degree <= 0:
            raise ValueError("median_degree must be positive")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.median_degree = median_degree
        self.sigma = sigma
        self.max_degree = max_degree

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw target degrees (see :class:`DegreeDistribution`)."""
        draws = rng.lognormal(mean=np.log(self.median_degree), sigma=self.sigma, size=n)
        degrees = np.clip(np.rint(draws), 1, self.max_degree)
        return degrees.astype(np.int64)

    def mean(self) -> float:
        """Theoretical mean degree."""
        return float(self.median_degree * np.exp(self.sigma ** 2 / 2.0))


class WeibullDistribution(DegreeDistribution):
    """Discretized Weibull degrees, support k >= 1.

    The paper fits Weibull (next to Zeta, Geometric, Poisson) to real
    degree distributions and plans more plugins "as more real graphs
    are analysed"; this plugin closes the loop — a graph whose degrees
    fit Weibull best can be regenerated from the fitted parameters.
    """

    name = "weibull"

    def __init__(self, shape: float = 1.0, scale: float = 10.0):
        if shape <= 0 or scale <= 0:
            raise ValueError("shape and scale must be positive")
        self.shape = shape
        self.scale = scale

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw target degrees (see :class:`DegreeDistribution`)."""
        draws = self.scale * rng.weibull(self.shape, size=n)
        return np.maximum(np.rint(draws), 1).astype(np.int64)

    def mean(self) -> float:
        """Theoretical mean degree (of the continuous model)."""
        from scipy.special import gamma

        return float(self.scale * gamma(1.0 + 1.0 / self.shape))

    def expected_pmf(self, degrees: np.ndarray) -> np.ndarray:
        """Theoretical P(degree = k) on the support."""
        from scipy import stats as scipy_stats

        degrees = np.asarray(degrees, dtype=np.float64)
        out = np.zeros_like(degrees)
        valid = degrees >= 1
        upper = scipy_stats.weibull_min.cdf(
            degrees[valid] + 0.5, self.shape, scale=self.scale
        )
        lower = scipy_stats.weibull_min.cdf(
            np.maximum(degrees[valid] - 0.5, 0.0), self.shape, scale=self.scale
        )
        out[valid] = upper - lower
        return out


class EmpiricalDistribution(DegreeDistribution):
    """Degrees resampled from an observed degree sequence.

    This is the paper's plugin "to feed Datagen with empirical data to
    be reproduced": pass the degree sequence of a real graph and the
    generator reproduces its degree histogram.
    """

    name = "empirical"

    def __init__(self, observed_degrees: Sequence[int]):
        observed = np.asarray(observed_degrees, dtype=np.int64)
        if observed.size == 0:
            raise ValueError("empirical distribution needs at least one sample")
        if np.any(observed < 0):
            raise ValueError("degrees must be non-negative")
        self._values, counts = np.unique(observed, return_counts=True)
        self._pmf = counts / counts.sum()
        self._cdf = np.cumsum(self._pmf)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw target degrees (see :class:`DegreeDistribution`)."""
        draws = rng.random(n)
        return self._values[np.searchsorted(self._cdf, draws)]

    def mean(self) -> float:
        """Theoretical mean degree."""
        return float(np.sum(self._values * self._pmf))

    def expected_pmf(self, degrees: np.ndarray) -> np.ndarray:
        """Theoretical P(degree = k) on the support."""
        degrees = np.asarray(degrees, dtype=np.int64)
        lookup = {int(v): float(p) for v, p in zip(self._values, self._pmf)}
        return np.array([lookup.get(int(k), 0.0) for k in degrees])


def distribution_from_name(name: str, **params) -> DegreeDistribution:
    """Instantiate a distribution plugin by registry name.

    Supports the four built-in plugins; configuration files reference
    them by name (e.g. ``degree_distribution = zeta``).
    """
    registry = {
        "zeta": ZetaDistribution,
        "geometric": GeometricDistribution,
        "facebook": FacebookDistribution,
        "weibull": WeibullDistribution,
        "empirical": EmpiricalDistribution,
    }
    if name not in registry:
        raise ValueError(
            f"unknown degree distribution {name!r}; choose from {sorted(registry)}"
        )
    return registry[name](**params)
