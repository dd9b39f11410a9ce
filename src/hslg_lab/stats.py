"""Statistical machinery for the experiment drivers.

Kolmogorov-Smirnov one- and two-sample tests (asymptotic p-values with the
Stephens small-sample factor) and the normal CDF of the drivers' z tests.
The percentile bootstrap interval, drawn from the bootstrap lane namespace,
has no driver caller; the benchmark times it on a fixed probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import LANE_BOOTSTRAP, lane_keys, uniforms

RESAMPLES = 1000            # bootstrap resamples per interval
CI_LEVEL = 0.99             # coverage of every bootstrap interval
KS_MIN_SAMPLES = 8          # fewest values a KS sample may hold
SIGNIFICANCE = 0.001        # default level of each statistical check


@dataclass(frozen=True)
class TestResult:
    statistic: float
    pvalue: float


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float


def kolmogorov_sf(t: float) -> float:
    """P(sup |Brownian bridge| > t), the asymptotic KS null tail."""
    if t <= 0.0:
        return 1.0
    if t < 1.18:
        # theta-transformed series converges fast for small t
        a = math.exp(-math.pi**2 / (8.0 * t * t))
        s = a * (1.0 + a**8 * (1.0 + a**16))
        return max(0.0, 1.0 - math.sqrt(2.0 * math.pi) / t * s)
    s = 0.0
    for k in range(1, 200):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * t * t)
        s += term
        if abs(term) < 1e-16:
            break
    return min(1.0, max(0.0, s))


def _stephens_p(d: float, en: float) -> float:
    return kolmogorov_sf((en + 0.12 + 0.11 / en) * d)


def _ks_sample(values) -> np.ndarray:
    """`values` sorted; too few or non-finite ones (a NaN sorts last and
    moves D by only 1/n) raise ValueError."""
    x = np.sort(np.asarray(values, dtype=float).ravel())
    if x.size < KS_MIN_SAMPLES:
        raise ValueError(f"KS needs at least {KS_MIN_SAMPLES} samples")
    if not np.isfinite(x).all():
        raise ValueError("KS samples must be finite")
    return x


def ks_test(samples, reference) -> TestResult:
    """KS of `samples` against a CDF callable or a second sample."""
    x = _ks_sample(samples)
    n = x.size
    if callable(reference):
        f = np.asarray(reference(x), dtype=float)
        d_plus = np.max(np.arange(1, n + 1) / n - f)
        d_minus = np.max(f - np.arange(0, n) / n)
        d = float(max(d_plus, d_minus))
        en = math.sqrt(n)
    else:
        y = _ks_sample(reference)
        m = y.size
        pooled = np.concatenate([x, y])
        f1 = np.searchsorted(x, pooled, side="right") / n
        f2 = np.searchsorted(y, pooled, side="right") / m
        d = float(np.max(np.abs(f1 - f2)))
        en = math.sqrt(n * m / (n + m))
    return TestResult(d, _stephens_p(d, en))


def normal_cdf(x):
    return 0.5 * np.vectorize(math.erfc, otypes=[float])(
        -np.asarray(x, dtype=float) / math.sqrt(2.0))


def bootstrap_ci(values, stat=np.median, *, seed: int = 0) -> Interval:
    """`CI_LEVEL` percentile bootstrap interval from `RESAMPLES` resamples;
    `stat` must accept an axis argument.

    Resample r, draw i consumes the dedicated lane LANE_BOOTSTRAP + r*n + i
    of stream 0, so an interval does not depend on call order.
    """
    vals = np.asarray(values, dtype=float).ravel()
    n = vals.size
    if n < 2:
        raise ValueError("bootstrap needs at least 2 values")
    out = np.empty(RESAMPLES)
    chunk = max(1, int(2e7) // n)
    base = np.uint64(LANE_BOOTSTRAP)
    for r0 in range(0, RESAMPLES, chunk):
        r1 = min(r0 + chunk, RESAMPLES)
        lanes = base + np.arange(r0 * n, r1 * n, dtype=np.uint64)
        u = uniforms(lane_keys(seed, 0, lanes), 0).reshape(r1 - r0, n)
        idx = np.minimum((u * n).astype(np.int64), n - 1)
        out[r0:r1] = stat(vals[idx], axis=1)
    a = (1.0 - CI_LEVEL) / 2.0
    return Interval(float(np.quantile(out, a)), float(np.quantile(out, 1.0 - a)))
