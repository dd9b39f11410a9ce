"""Model parameters, the constants built from digamma and trigamma, and
the Beta CDF that the walk checks read.

The polymer's limit laws are governed by digamma/trigamma values at
theta + alpha and theta - alpha, computed here in 40-digit decimal: the
recurrence moves x past `_SHIFT`, where the asymptotic series through B_20
is off by under 1e-36, so the floats are correctly rounded even at psi's
root near 1.4616.

The two Beta laws of the checks, sigma(X) ~ Beta(theta - alpha, theta +
alpha) for one walk increment and 1 - 1/Q ~ Beta(theta + alpha, -2 alpha)
for the series Q, are read through `beta_cdf_logit`, the Beta CDF at the
logistic of a logit, by the standard continued fraction.  Tests check all
three functions against scipy and against closed forms that use no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

import numpy as np

_SHIFT = 60
# (numerator, denominator) of the Bernoulli numbers B_2, B_4, .., B_20
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330))


def _polygamma(order: int, x: float) -> float:
    """psi (order 0) or psi' (order 1) at x > 0, correctly rounded."""
    with localcontext(Context(prec=40)):
        y, shifted = Decimal(x), Decimal(0)
        while y < _SHIFT:       # psi(y) = psi(y+1) - 1/y, psi'(y) = psi'(y+1) + 1/y^2
            shifted += 1 / y ** (order + 1)
            y += 1
        b = enumerate((Decimal(p) / q for p, q in _BERNOULLI), 1)
        if order == 0:
            return float(y.ln() - 1 / (2 * y) - shifted
                         - sum(t / (2 * k * y ** (2 * k)) for k, t in b))
        return float(1 / y + 1 / (2 * y * y) + shifted
                     + sum(t / y ** (2 * k + 1) for k, t in b))


def digamma(x: float) -> float:
    return _polygamma(0, x)


def trigamma(x: float) -> float:
    return _polygamma(1, x)


_CF_TERMS = 1000            # terms of the Beta continued fraction before it gives up
_TINY = 1e-300              # modified Lentz's stand-in for a zero denominator


def beta_cdf_logit(a: float, b: float, v) -> np.ndarray:
    """I_{sigma(v)}(a, b): the Beta(a, b) CDF at x = sigma(v), the logistic
    function of the logits `v`, for shapes a, b > 0.

    log x = -log(1 + e^{-v}) and log(1 - x) = -log(1 + e^v) both come from
    the logit, so 1 - x keeps the digits that rounding x near 1 would lose.
    The result is x^a (1 - x)^b / B(a, b), taken in logs, times the
    continued fraction of DLMF 8.17.22 where x < (a + 1) / (a + b + 2), and
    one minus the mirrored I_{1-x}(b, a) elsewhere, where the fraction for
    (a, b) would converge slowly (the split of DiDonato and Morris, ACM
    TOMS 18, 1992, and of Numerical Recipes' betai).
    """
    v = np.asarray(v, dtype=float)
    flat = v.ravel()
    out = np.empty_like(flat)
    # in the far tails x^a (1 - x)^b, x or 1 - x, and the terms they scale
    # round to 0.0 or to subnormals, and a shape times log x to -inf
    with np.errstate(under="ignore", over="ignore"):
        log_x, log_y = -np.logaddexp(0.0, -flat), -np.logaddexp(0.0, flat)
        front = np.exp(a * log_x + b * log_y
                       - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
        x, y = np.exp(log_x), np.exp(log_y)
        lower = x < (a + 1.0) / (a + b + 2.0)
        upper = ~lower
        out[lower] = front[lower] / a * _beta_fraction(a, b, x[lower])
        out[upper] = 1.0 - front[upper] / b * _beta_fraction(b, a, y[upper])
    return out.reshape(v.shape)


def _nonzero(t: np.ndarray) -> np.ndarray:
    return np.where(np.abs(t) < _TINY, _TINY, t)


def _beta_fraction(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The continued fraction 1 / (1 + d_1 / (1 + d_2 / ..)) of I_x(a, b)
    over x^a (1 - x)^b / (a B(a, b)), by modified Lentz, at each point of
    the 1-d array `x` until a pair of terms moves it by at most an ulp.

    A point still moving after `_CF_TERMS` pairs raises RuntimeError, so an
    unconverged value is never returned.
    """
    out = np.empty_like(x)
    todo = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    f = d.copy()
    for m in range(1, _CF_TERMS + 1):
        # d_{2m} = m (b - m) x / ((a + 2m - 1)(a + 2m)), then
        # d_{2m+1} = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1))
        for coef in (m * (b - m) / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / _nonzero(1.0 + coef * x * d)
            c = _nonzero(1.0 + coef * x / c)
            step = c * d
            f *= step
        done = np.abs(step - 1.0) <= np.finfo(float).eps
        out[todo[done]] = f[done]
        more = ~done
        if not more.any():
            return out
        todo, x, c, d, f = todo[more], x[more], c[more], d[more], f[more]
    raise RuntimeError(f"Beta continued fraction failed to converge in {_CF_TERMS} terms")


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
    psi_a, psi_b = digamma(a), digamma(b)
    tri_a, tri_b = trigamma(a), trigamma(b)
    return Constants(
        free_energy_rate=-psi_a - psi_b,
        increment_drift=psi_b - psi_a,
        clt_variance=tri_a - tri_b,
    )


def _psi_gap(params: ModelParams) -> float:
    """psi(theta) - (psi(theta + alpha) + psi(theta - alpha)) / 2."""
    return digamma(params.theta) - 0.5 * (
        digamma(params.theta + params.alpha) + digamma(params.theta - params.alpha))


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
