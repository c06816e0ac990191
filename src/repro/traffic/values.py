"""Request value-per-byte distributions (paper §6.1, §6.3).

The evaluation draws request values from normal distributions with
different mean-to-stddev ratios and from pareto distributions (Figures 6
and 13/14).  Every distribution here is parameterised by its *mean* so that
sweeps change only the shape, keeping the average willingness-to-pay fixed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..core.request import _require_finite

#: Values are clipped below at this floor: a request with literally zero
#: willingness-to-pay would never be submitted.
VALUE_FLOOR = 1e-6


class ValueDistribution(ABC):
    """Sampler for per-byte request values."""

    #: Human-readable label used in experiment reports.
    name: str = "values"

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` positive values."""

    def sample_one(self, rng: np.random.Generator) -> float:
        """One value, consuming exactly what ``sample(rng, 1)`` would.

        The built-in distributions override this with the scalar form of
        the same draw, which skips the array round trip per request.
        """
        return float(self.sample(rng, 1)[0])


class NormalValues(ValueDistribution):
    """Truncated-at-zero normal values.

    Figure 6 uses "a normal distribution with standard deviation smaller
    than the mean"; Figure 13 sweeps the mean/stddev ratio.
    """

    def __init__(self, mean: float = 1.0, sigma: float = 0.5) -> None:
        _require_finite("NormalValues", mean=mean, sigma=sigma)
        if mean <= 0 or sigma < 0:
            raise ValueError("mean must be positive and sigma nonnegative")
        self.mean = mean
        self.sigma = sigma
        self.name = f"normal(mu={mean:g},sigma={sigma:g})"

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.maximum(rng.normal(self.mean, self.sigma, size),
                          VALUE_FLOOR)

    def sample_one(self, rng: np.random.Generator) -> float:
        return max(rng.normal(self.mean, self.sigma), VALUE_FLOOR)


class ParetoValues(ValueDistribution):
    """Pareto (heavy-tailed) values with a configurable mean.

    ``alpha`` is the tail exponent (must exceed 1 for a finite mean); the
    scale is set so the distribution mean equals ``mean``.
    """

    def __init__(self, mean: float = 1.0, alpha: float = 2.5) -> None:
        _require_finite("ParetoValues", mean=mean, alpha=alpha)
        if mean <= 0:
            raise ValueError("mean must be positive")
        if alpha <= 1.0:
            raise ValueError("alpha must exceed 1 for a finite mean")
        self.mean = mean
        self.alpha = alpha
        self.scale = mean * (alpha - 1.0) / alpha
        self.name = f"pareto(mean={mean:g},alpha={alpha:g})"

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # numpy's pareto is the Lomax form: scale * (1 + pareto) is the
        # classical Pareto with minimum = scale.
        return self.scale * (1.0 + rng.pareto(self.alpha, size))

    def sample_one(self, rng: np.random.Generator) -> float:
        return self.scale * (1.0 + rng.pareto(self.alpha))


def normal_with_ratio(mu_over_sigma: float, mean: float = 1.0) -> NormalValues:
    """Normal distribution specified by its mean/stddev ratio (Fig 13)."""
    if mu_over_sigma <= 0:
        raise ValueError("mu/sigma ratio must be positive")
    return NormalValues(mean=mean, sigma=mean / mu_over_sigma)


def pareto_with_ratio(mu_over_sigma: float, mean: float = 1.0) -> ParetoValues:
    """Pareto distribution specified by its mean/stddev ratio (Fig 13).

    For a Pareto with tail index ``a``, mean/std = sqrt(a * (a - 2)) for
    a > 2; inverting gives ``a = 1 + sqrt(1 + ratio^2)``.
    """
    if mu_over_sigma <= 0:
        raise ValueError("mu/sigma ratio must be positive")
    ratio_sq = mu_over_sigma ** 2
    alpha = 1.0 + (1.0 + ratio_sq) ** 0.5
    return ParetoValues(mean=mean, alpha=max(alpha, 1.05))
