"""Model parameters and the constants built from digamma and trigamma.

The polymer's limit laws are governed by digamma/trigamma values at
theta + alpha and theta - alpha.  They come from `scipy.special` and are
returned as Python floats; the test suite checks them against a zeta
series, recurrences and closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import digamma, polygamma


@dataclass(frozen=True)
class ModelParams:
    """Weight-law parameters: diagonal shape theta + alpha, bulk shape 2 theta.

    The bound phase means alpha < 0; all drift formulas below assume it.
    """

    theta: float
    alpha: float

    def __post_init__(self):
        if not self.theta > 0.0:
            raise ValueError("theta must be positive")
        if not (-self.theta < self.alpha < 0.0):
            raise ValueError("alpha must lie in (-theta, 0) (bound phase)")

    @property
    def shape_diag(self) -> float:
        return self.theta + self.alpha

    @property
    def shape_bulk(self) -> float:
        return 2.0 * self.theta

    @property
    def shape_boundary(self) -> float:
        """First-row shape of the stationary variant."""
        return self.theta - self.alpha


@dataclass(frozen=True)
class Constants:
    """Derived drift/variance constants for given (theta, alpha)."""

    free_energy_rate: float       # R: diagonal growth rate of log Z
    increment_drift: float        # tau: mean of one walk increment, > 0
    clt_variance: float           # sigma^2 in the Gaussian fluctuation law


def constants(params: ModelParams) -> Constants:
    a, b = params.theta + params.alpha, params.theta - params.alpha
    psi_a, psi_b = float(digamma(a)), float(digamma(b))
    tri_a, tri_b = float(polygamma(1, a)), float(polygamma(1, b))
    return Constants(
        free_energy_rate=-psi_a - psi_b,
        increment_drift=psi_b - psi_a,
        clt_variance=tri_a - tri_b,
    )


def _psi_gap(params: ModelParams) -> float:
    """psi(theta) - (psi(theta + alpha) + psi(theta - alpha)) / 2."""
    return float(digamma(params.theta) - 0.5 * (
        digamma(params.theta + params.alpha) + digamma(params.theta - params.alpha)))


def delta_k(params: ModelParams, k: int) -> float:
    """Excess of the k-layer averaged growth rate over its comparison value.

    delta_k = psi(theta) - (psi(theta+alpha) + psi(theta-alpha))/2 - log(2)/(2k),
    increasing in k with a positive limit (strict concavity of psi).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    gap = _psi_gap(params)
    return gap - math.log(2.0) / (2.0 * k)


def k_star(params: ModelParams) -> int:
    """Smallest k >= 1 with delta_k > 0 (finite for every bound-phase point)."""
    gap = _psi_gap(params)
    # gap > 0 strictly; delta_k > 0 iff k > log 2 / (2 gap)
    k = int(math.floor(math.log(2.0) / (2.0 * gap))) + 1
    return max(k, 1)
