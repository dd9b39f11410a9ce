"""Statistical experiment drivers over batches of polymer environments.

Each driver consumes an ExperimentConfig, fans the environment batch out
over a worker pool in fixed-size stream blocks (block boundaries depend
only on the sample count, so the thread count never changes a single
number), and returns a StatReport carrying CSV-ready rows, named pass/fail
checks, and enough metadata to reproduce the run.

The asymptotic statements behind these drivers are honestly testable at
desk scale in two forms only: exact finite-size identities (tested at a
fixed significance floor) and directional trends along a size grid.  A
trend check passes when the point estimates are ordered the right way and
the ordering is not contradicted by the 99% bootstrap intervals.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import count

import numpy as np
from scipy.special import gammaincc, logsumexp

from .environment import generate_environment, symmetrize
from .multilayer import batch_diag_avoiding_profiles, line_ensemble
from .polymer import batch_final_profiles, increment_vector, partition_table
from .rng import LANE_BOOTSTRAP, lane_keys, log_gamma_draws
from .special import ModelParams, constants, delta_k, diagonal_rate_alpha_zero, k_star
from .stats import (KS_MIN_SAMPLES, RESAMPLES, Interval, bootstrap_ci,
                    chi2_independence, ks_test, normal_cdf)
# walk_increment_matrix has no caller here; bench/traced.py wraps it under
# this module and probes it, so it stays importable from here
from .walk import increment_cdf, limiting_endpoint_pmf, walk_increment_matrix

STREAM_BLOCK = 256          # environments per work item
CI_STRIDE = 1 << 28         # bootstrap lane namespace per interval
MAX_BOOTSTRAP_VALUES = CI_STRIDE // RESAMPLES   # an interval uses RESAMPLES lanes per value
R0_LANE = (1 << 49) - 1     # one reserved lane per stream for boundary draws


class ConfigError(ValueError):
    """A setting a driver refuses before it starts any work."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all drivers; unused fields are ignored by a driver."""

    params: ModelParams
    sizes: tuple[int, ...]
    samples: int
    seed: int = 0
    stream: int = 0
    flavor: str = "standard"
    significance: float = 0.001
    threads: int = 1
    out: str | None = None
    theorem: str = ""
    k_grid: tuple[int, ...] = (0, 1, 2, 4, 10)
    r_max: int = 5
    walk_samples: int = 100_000
    deep_m: int = 2
    small_sizes: tuple[int, ...] = (5, 8, 11)
    small_samples: int = 200

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "k_grid", tuple(int(k) for k in self.k_grid))
        object.__setattr__(self, "small_sizes",
                           tuple(int(n) for n in self.small_sizes))
        if not self.sizes or min(self.sizes) < 1:
            raise ValueError("sizes must be positive")
        if min(self.samples, self.walk_samples) < KS_MIN_SAMPLES:
            raise ValueError(f"samples and walk_samples must be >= {KS_MIN_SAMPLES}, "
                             "the fewest a KS test takes")
        if self.small_samples < 2:
            raise ValueError("small_samples must be >= 2, the fewest a bootstrap "
                             "interval takes")
        if not self.small_sizes:
            raise ValueError("small_sizes must not be empty")
        if max(self.samples, self.small_samples) > MAX_BOOTSTRAP_VALUES:
            raise ValueError(f"samples and small_samples must be <= {MAX_BOOTSTRAP_VALUES}, "
                             "or bootstrap intervals would share lanes")
        if not 0.0 < self.significance < 1.0:
            raise ValueError("significance must lie in (0, 1)")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.flavor not in ("standard", "stationary"):
            raise ValueError("flavor must be standard or stationary")
        if any(k < 0 for k in self.k_grid) or list(self.k_grid) != sorted(set(self.k_grid)):
            raise ValueError("k_grid must be increasing and nonnegative")
        if self.r_max < 1:
            raise ValueError("r_max must be >= 1")

    def echo(self) -> dict:
        d = {
            "theta": self.params.theta, "alpha": self.params.alpha,
            "sizes": list(self.sizes), "samples": self.samples,
            "seed": self.seed, "stream": self.stream, "flavor": self.flavor,
            "significance": self.significance, "theorem": self.theorem,
            "k_grid": list(self.k_grid), "r_max": self.r_max,
            "walk_samples": self.walk_samples, "deep_m": self.deep_m,
            "small_sizes": list(self.small_sizes),
            "small_samples": self.small_samples, "out": self.out,
        }
        return d


def _py_scalar(x):
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # comparisons on numpy scalars yield np.bool_, which json rejects
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass
class StatReport:
    name: str
    config: dict
    header: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "config": self.config,
            "header": list(self.header),
            "rows": [[_py_scalar(x) for x in r] for r in self.rows],
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "passed": self.passed,
            "wall_seconds": self.wall_seconds,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# batch plumbing


def _map_blocks(fn, blocks, threads: int):
    if threads <= 1 or len(blocks) <= 1:
        return [fn(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, blocks))


def _stream_blocks(config: ExperimentConfig, total: int):
    return [(config.stream + lo, min(STREAM_BLOCK, total - lo))
            for lo in range(0, total, STREAM_BLOCK)]


def _profiles(config: ExperimentConfig, n: int, flavor: str) -> np.ndarray:
    """(samples, n) final-line log partition profiles."""
    def work(block):
        start, cnt = block
        streams = np.arange(start, start + cnt, dtype=np.uint64)
        return batch_final_profiles(config.params, n, flavor, config.seed,
                                    streams)
    parts = _map_blocks(work, _stream_blocks(config, config.samples),
                        config.threads)
    return np.vstack(parts)


def _diag_avoiding(config: ExperimentConfig, n: int, flavor: str) -> np.ndarray:
    def work(block):
        start, cnt = block
        streams = np.arange(start, start + cnt, dtype=np.uint64)
        return batch_diag_avoiding_profiles(config.params, n, flavor,
                                            config.seed, streams)
    parts = _map_blocks(work, _stream_blocks(config, config.samples),
                        config.threads)
    return np.vstack(parts)


# ---------------------------------------------------------------------------
# trend checks


def _gap_interval(ci: Interval, target: float) -> Interval:
    lo, hi = abs(ci.lo - target), abs(ci.hi - target)
    if ci.lo <= target <= ci.hi:
        return Interval(0.0, max(lo, hi))
    return Interval(min(lo, hi), max(lo, hi))


def _trend(name: str, points, cis, *, strict: bool = True,
           increasing: bool = False) -> Check:
    """Trend check: ordered point estimates plus CI non-contradiction."""
    pts = [float(p) for p in points]
    if increasing:
        ordered = all(b > a if strict else b >= a for a, b in zip(pts, pts[1:]))
        contradicted = any(nxt.hi < cur.lo for cur, nxt in zip(cis, cis[1:]))
    else:
        ordered = all(b < a if strict else b <= a for a, b in zip(pts, pts[1:]))
        contradicted = any(nxt.lo > cur.hi for cur, nxt in zip(cis, cis[1:]))
    detail = " -> ".join(f"{p:.6g}" for p in pts)
    if contradicted:
        detail += " (contradicted at 99% CI)"
    return Check(name, ordered and not contradicted, detail)


class _LaneAlloc:
    """Hands each bootstrap interval its own lane block."""

    def __init__(self):
        self._it = count()

    def __call__(self) -> int:
        return next(self._it) * CI_STRIDE


# ---------------------------------------------------------------------------
# drivers


def run_pinning(config: ExperimentConfig) -> StatReport:
    """Endpoint tail masses and the deep point-to-line tail across sizes."""
    t0 = time.perf_counter()
    rep = StatReport("pinning", config.echo(),
                     ("N", "k", "median_tail", "upper_q95_tail"))
    lanes = _LaneAlloc()
    tail_cis: dict[tuple[int, int], Interval] = {}
    medians: dict[tuple[int, int], float] = {}
    for n in config.sizes:
        prof = _profiles(config, n, "standard")
        total = logsumexp(prof, axis=1)
        ks = [k for k in config.k_grid if k < n]
        for k in ks:
            tail = np.exp(logsumexp(prof[:, k:], axis=1) - total)
            med = float(np.median(tail))
            rep.rows.append((n, k, med, float(np.quantile(tail, 0.95))))
            medians[n, k] = med
            tail_cis[n, k] = bootstrap_ci(tail, np.median, seed=config.seed,
                                          stream=config.stream,
                                          lane_base=lanes())
            if k == 0:
                rep.checks.append(Check(
                    f"tail_mass_k0_is_one_N{n}", bool(np.all(tail == 1.0)),
                    "P(endpoint anywhere) = 1 exactly"))
        dec = all(medians[n, b] < medians[n, a]
                  for a, b in zip(ks, ks[1:]))
        rep.checks.append(Check(
            f"median_tail_decreasing_in_k_N{n}", dec,
            " -> ".join(f"{medians[n, k]:.4g}" for k in ks)))
        m_deep = math.ceil(config.deep_m * math.sqrt(n))
        if m_deep < n:
            deep = np.exp(logsumexp(prof[:, m_deep:], axis=1) - total)
            med = float(np.median(deep))
            bound = 10.0 * math.exp(-math.sqrt(n))
            rep.checks.append(Check(
                f"deep_tail_median_N{n}", med <= bound,
                f"median {med:.3e} <= 10 exp(-sqrt(N)) = {bound:.3e}"))
    for k in config.k_grid:
        sizes = [n for n in config.sizes if (n, k) in medians]
        if len(sizes) >= 2 and k > 0:
            rep.checks.append(_trend(
                f"median_tail_k{k}_nonincreasing_in_N",
                [medians[n, k] for n in sizes],
                [tail_cis[n, k] for n in sizes], strict=False))
    rep.wall_seconds = time.perf_counter() - t0
    return rep


def run_walk_attractor(config: ExperimentConfig) -> StatReport:
    """Free-energy increments along the final line against the walk law."""
    t0 = time.perf_counter()
    rep = StatReport(f"walk_attractor_{config.flavor}", config.echo(),
                     ("N", "r", "ks_distance", "ks_pvalue"))
    lanes = _LaneAlloc()
    cdf = lambda v: increment_cdf(config.params, v)
    sig = config.significance
    d_first: list[float] = []
    d_cis: list[Interval] = []
    for n in config.sizes:
        prof = _profiles(config, n, config.flavor)
        r_hi = min(config.r_max, n - 1)
        for r in range(1, r_hi + 1):
            x = prof[:, r - 1] - prof[:, r]
            res = ks_test(x, cdf)
            rep.rows.append((n, r, res.statistic, res.pvalue))
            if config.flavor == "stationary":
                rep.checks.append(Check(
                    f"stationary_ks_r{r}_N{n}", res.pvalue > sig,
                    f"D={res.statistic:.4f} p={res.pvalue:.4g}"))
            if r == 1:
                d_first.append(res.statistic)
                d_cis.append(bootstrap_ci(
                    x, _ks_distance_rows(x, cdf),
                    seed=config.seed, stream=config.stream,
                    lane_base=lanes()))
        if config.flavor == "stationary" and r_hi >= 2 and prof.shape[0] >= 640:
            for r in range(1, min(3, r_hi)):
                a = prof[:, r - 1] - prof[:, r]
                b = prof[:, r] - prof[:, r + 1]
                res = chi2_independence(a, b)
                rep.checks.append(Check(
                    f"independence_r{r}_r{r + 1}_N{n}", res.pvalue > sig,
                    f"chi2={res.statistic:.1f} p={res.pvalue:.4g}"))
    if config.flavor == "standard":
        env = generate_environment(config.params, min(config.sizes),
                                   "standard", config.seed, config.stream)
        inc0 = increment_vector(partition_table(env), 1)[0]
        rep.checks.append(Check("increment_r0_degenerate", inc0 == 0.0,
                                f"value {inc0!r}"))
        if len(config.sizes) >= 2:
            rep.checks.append(_trend("ks_distance_r1_decreasing_in_N",
                                     d_first, d_cis))
    rep.wall_seconds = time.perf_counter() - t0
    return rep


def _ks_distance_rows(x: np.ndarray, cdf):
    """Bootstrap statistic: row-wise one-sample KS distances of resamples of x.

    Resamples hold only values of x, so the CDF is evaluated once on the
    sorted sample and looked up.
    """
    xs = np.sort(x)
    fx = cdf(xs)

    def stat(mat: np.ndarray, axis) -> np.ndarray:
        s = np.sort(np.atleast_2d(mat), axis=1)
        f = fx[np.searchsorted(xs, s)]
        n = s.shape[1]
        up = np.max(np.arange(1, n + 1) / n - f, axis=1)
        dn = np.max(f - np.arange(0, n) / n, axis=1)
        return np.maximum(up, dn)

    return stat


def run_quenched_limit(config: ExperimentConfig) -> StatReport:
    """Quenched endpoint pmf against the normalized walk series weights.

    Each walk's weights e^{-S_r} / Q come from `limiting_endpoint_pmf` with
    the tail of Q certified below 2^-53, half an ulp of Q >= 1; only Q and
    the weights for r <= r_max are kept.  `walk_series_certified` fails
    when any walk reaches the cap of the certificate uncertified.
    """
    t0 = time.perf_counter()
    rep = StatReport("quenched_limit", config.echo(),
                     ("r", "ks_distance", "ks_pvalue", "polymer_mean",
                      "walk_mean", "polymer_var", "walk_var"))
    sig = config.significance
    n = max(config.sizes)
    prof = _profiles(config, n, "standard")
    total = logsumexp(prof, axis=1)
    pmf = np.exp(prof - total[:, None])
    rep.checks.append(Check(
        "pmf_rows_sum_to_one", bool(np.allclose(pmf.sum(axis=1), 1.0, atol=1e-12)),
        f"max |sum - 1| = {np.max(np.abs(pmf.sum(axis=1) - 1.0)):.2e}"))

    r_hi = min(config.r_max, n - 1)
    streams = (np.asarray(config.stream, dtype=np.uint64)
               + np.arange(config.walk_samples, dtype=np.uint64))
    walk = limiting_endpoint_pmf(config.params, config.seed, streams, r_hi,
                                 2.0**-53)
    done = int(walk.converged.sum())
    rep.checks.append(Check(
        "walk_series_certified", done == streams.size,
        f"{done}/{streams.size} walks certified to tail <= 2^-53, max M "
        f"{int(walk.m.max())}, max tail bound {walk.tail_bound.max():.3g}, "
        f"drift risk {walk.risk:.3g}"))
    for r in range(0, r_hi + 1):
        wside = walk.pmf[:, r]
        res = ks_test(pmf[:, r], wside)
        rep.rows.append((r, res.statistic, res.pvalue,
                         float(pmf[:, r].mean()), float(wside.mean()),
                         float(pmf[:, r].var(ddof=1)),
                         float(wside.var(ddof=1))))
        rep.checks.append(Check(
            f"marginal_ks_r{r}", res.pvalue > sig,
            f"D={res.statistic:.4f} p={res.pvalue:.4g}"))

    # boundary-weight product identity: Q R0 ~ inverse gamma of shape -2 alpha
    keys = lane_keys(config.seed, streams, np.uint64(R0_LANE))
    r0 = np.exp(-log_gamma_draws(config.params.theta - config.params.alpha, keys))
    shape = -2.0 * config.params.alpha
    res = ks_test(walk.q * r0, lambda w: gammaincc(shape, 1.0 / w))
    rep.checks.append(Check("qr0_inverse_gamma", res.pvalue > sig,
                            f"D={res.statistic:.4f} p={res.pvalue:.4g}"))
    rep.wall_seconds = time.perf_counter() - t0
    return rep


def run_gaussian_fluct(config: ExperimentConfig) -> StatReport:
    """Normalized diagonal and near-diagonal free energies against a Gaussian."""
    t0 = time.perf_counter()
    rep = StatReport("gaussian_fluct", config.echo(),
                     ("N", "statistic", "value"))
    lanes = _LaneAlloc()
    c = constants(config.params)
    rate, tau = c.free_energy_rate, c.increment_drift
    sigma = math.sqrt(c.clt_variance)
    means, mean_cis, vars_, var_cis = [], [], [], []
    corr_last = mean_last = var_last = float("nan")
    for n in config.sizes:
        prof = _profiles(config, n, "standard")
        g = max(1, int(n ** 0.25))
        z = (prof[:, 0] - rate * n) / (sigma * math.sqrt(n))
        z_line = ((logsumexp(prof[:, g:], axis=1) - rate * n + g * tau)
                  / (sigma * math.sqrt(n)))
        corr = float(np.corrcoef(prof[:, 0], prof[:, g])[0, 1])
        m, v = float(z.mean()), float(z.var(ddof=1))
        ksr = ks_test(z, normal_cdf)
        rep.rows += [(n, "diag_mean", m), (n, "diag_variance", v),
                     (n, "diag_ks_distance", ksr.statistic),
                     (n, "diag_ks_pvalue", ksr.pvalue),
                     (n, "line_mean", float(z_line.mean())),
                     (n, "line_variance", float(z_line.var(ddof=1))),
                     (n, "offdiag_corr", corr)]
        means.append(abs(m))
        mean_cis.append(_gap_interval(
            bootstrap_ci(z, np.mean, seed=config.seed, stream=config.stream,
                         lane_base=lanes()), 0.0))
        vars_.append(abs(v - 1.0))
        var_cis.append(_gap_interval(
            bootstrap_ci(z, lambda x, axis: x.var(axis=axis, ddof=1),
                         seed=config.seed, stream=config.stream,
                         lane_base=lanes()), 1.0))
        corr_last, mean_last, var_last = corr, m, v
    n_big = config.sizes[-1]
    rep.checks.append(Check(f"diag_mean_window_N{n_big}",
                            abs(mean_last) <= 0.3, f"mean {mean_last:.4f}"))
    rep.checks.append(Check(f"diag_variance_window_N{n_big}",
                            0.7 <= var_last <= 1.3, f"variance {var_last:.4f}"))
    rep.checks.append(Check(f"offdiag_corr_N{n_big}", corr_last > 0.9,
                            f"corr {corr_last:.4f}"))
    if len(config.sizes) >= 2:
        rep.checks.append(_trend("abs_mean_shrinking", means, mean_cis,
                                 strict=False))
        rep.checks.append(_trend("abs_variance_gap_shrinking", vars_, var_cis,
                                 strict=False))
    rep.wall_seconds = time.perf_counter() - t0
    return rep


def run_lln_profile(config: ExperimentConfig) -> StatReport:
    """Free-energy rates against their limits, and the top-curve average."""
    t0 = time.perf_counter()
    rep = StatReport("lln_profile", config.echo(),
                     ("N", "statistic", "median", "ci_lo", "ci_hi"))
    k = k_star(config.params)
    for order in config.small_sizes:
        if order < 2 * k + 1:
            raise ConfigError(f"small size {order} is below 2k*+1 = {2 * k + 1}, "
                              "too small for the top-curve average")
    lanes = _LaneAlloc()
    c = constants(config.params)
    rate = c.free_energy_rate

    gaps, gap_cis = [], []
    for n in config.sizes:
        prof = _profiles(config, n, "standard")
        v = logsumexp(prof[:, 1:], axis=1) / n
        med = float(np.median(v))
        ci = bootstrap_ci(v, np.median, seed=config.seed,
                          stream=config.stream, lane_base=lanes())
        rep.rows.append((n, "ptl_rate", med, ci.lo, ci.hi))
        gaps.append(abs(med - rate))
        gap_cis.append(_gap_interval(ci, rate))
    if len(config.sizes) >= 2:
        rep.checks.append(_trend("ptl_rate_gap_to_limit_shrinking",
                                 gaps, gap_cis))

    # diagonal-avoiding profile under the alpha -> 0 diagonal law
    target = diagonal_rate_alpha_zero(config.params.theta)
    gaps, gap_cis = [], []
    for n in config.sizes:
        prof = _diag_avoiding(config, n, "alpha-zero-diagonal")
        v = logsumexp(prof, axis=1) / n            # (2/q) log at q = 2n
        med = float(np.median(v))
        ci = bootstrap_ci(v, np.median, seed=config.seed,
                          stream=config.stream, lane_base=lanes())
        rep.rows.append((n, "diag_avoiding_rate", med, ci.lo, ci.hi))
        gaps.append(abs(med - target))
        gap_cis.append(_gap_interval(ci, target))
    if len(config.sizes) >= 2:
        rep.checks.append(_trend("diag_avoiding_gap_to_limit_shrinking",
                                 gaps, gap_cis))

    # sup over positions of the averaged top curves, small orders only
    dk = delta_k(config.params, k)
    rep.checks.append(Check("delta_k_positive_at_k_star", dk > 0.0,
                            f"k*={k} delta={dk:.4f}"))
    margins, margin_cis = [], []
    for order in config.small_sizes:
        vals = np.empty(config.small_samples)
        for i in range(config.small_samples):
            env = generate_environment(config.params, order + 1, "standard",
                                       config.seed, config.stream + i)
            ens = line_ensemble(symmetrize(env), 2 * k, order=order)
            width = 2 * order - 4 * k + 2
            avg = np.mean([ens.curves[j][:width] for j in range(2 * k)], axis=0)
            vals[i] = float(avg.max()) / order - (rate - 0.5 * dk)
        med = float(np.median(vals))
        ci = bootstrap_ci(vals, np.median, seed=config.seed,
                          stream=config.stream, lane_base=lanes())
        rep.rows.append((order, "top_avg_margin", med, ci.lo, ci.hi))
        margins.append(med)
        margin_cis.append(Interval(ci.lo, ci.hi))
    # finite sizes sit below the averaged-growth ceiling and rise toward it
    rep.checks.append(Check("top_avg_margin_nonpositive", margins[-1] <= 0.0,
                            f"margin {margins[-1]:.4f} at order "
                            f"{config.small_sizes[-1]}"))
    if len(config.small_sizes) >= 2:
        rep.checks.append(_trend("top_avg_margin_rising_toward_ceiling",
                                 margins, margin_cis, increasing=True))
    rep.wall_seconds = time.perf_counter() - t0
    return rep
