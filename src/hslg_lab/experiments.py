"""Statistical experiment drivers over batches of polymer environments.

Each driver consumes an ExperimentConfig, fans the environment batch out
over a worker pool in fixed-size stream blocks (block boundaries depend
only on the sample count, so the thread count never changes a single
number), and returns a StatReport carrying CSV-ready rows, named pass/fail
checks, and its run record.  `EXPERIMENTS` says, once per experiment, which
driver runs it and which ExperimentConfig fields that driver reads; the
record names theta, alpha, `theorem` and exactly those fields (`threads`
left out, since it never changes a number), so it names what the run read.

The checks test one size at a time, as the paper states its results:
exact finite-size identities, and tests at `config.significance` of each
size against a limit the package computes (the walk law of the endpoint
and of the free-energy increments, the standard normal of the diagonal
fluctuations); endpoint tail masses are tested in log space, where deep
tails stay finite.  Only the lln driver still checks directional trends
along its size grid: its point estimates must be strictly ordered, and the
ordering not contradicted by the 99% bootstrap intervals.

fluct's mean check has a null that holds at every size.  The stationary
flavor draws column 1 below the corner at shape theta - alpha, and then its
profile increments are i.i.d. walk increments at every N (the Burke
property).  log Z(2N-1, 1) is the sum of column 1's log weights and
log Z(N, N) - log Z(2N-1, 1) = S_{N-1}, so E[log Z_stat(N, N)] =
rate N + psi(theta - alpha) exactly.  The standard model's mean sits an
O(1) offset below rate N at finite N, so a test of "mean 0" in the limit
fails healthy runs; fluct reports that offset on the same streams instead.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import digamma, gammaincc, logsumexp

from .environment import generate_environment, symmetrize
from .multilayer import (LineEnsemble, batch_diag_avoiding_profiles, curve_length,
                         line_ensemble)
from .polymer import batch_final_profiles, partition_table
from .rng import LANE_BOUNDARY, lane_keys, log_gamma_draws
from .special import ModelParams, constants, delta_k, diagonal_rate_alpha_zero, k_star
from .stats import (CHI2_MIN_PAIRS, KS_MIN_SAMPLES, RESAMPLES, SIGNIFICANCE, Interval,
                    TestResult, bootstrap_ci, chi2_independence, ks_test, normal_cdf)
# partition_table and walk_increment_matrix have no caller here;
# bench/traced.py wraps them under this module and probes them there
from .walk import increment_cdf, limiting_endpoint_pmf, walk_increment_matrix

STREAM_BLOCK = 256          # environments per work item
CI_STRIDE = 1 << 28         # bootstrap lane namespace per interval
MAX_BOOTSTRAP_VALUES = CI_STRIDE // RESAMPLES   # an interval uses RESAMPLES lanes per value


class ConfigError(ValueError):
    """A setting a driver refuses before it starts any work."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all drivers; `EXPERIMENTS` names the fields each
    driver reads, and a driver ignores the rest."""

    params: ModelParams
    sizes: tuple[int, ...]
    samples: int
    seed: int = 0
    stream: int = 0
    flavor: str = "standard"
    significance: float = SIGNIFICANCE
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
        if not self.small_sizes:
            raise ValueError("small_sizes must not be empty")
        # the size comparisons of the drivers read the sizes in order
        for name in ("sizes", "small_sizes"):
            v = getattr(self, name)
            if list(v) != sorted(set(v)):
                raise ValueError(f"{name} must be strictly increasing")
        if min(self.samples, self.walk_samples) < KS_MIN_SAMPLES:
            raise ValueError(f"samples and walk_samples must be >= {KS_MIN_SAMPLES}, "
                             "the fewest a KS test takes")
        if self.small_samples < 2:
            raise ValueError("small_samples must be >= 2, the fewest a bootstrap "
                             "interval takes")
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


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class StatReport:
    name: str
    config: dict
    header: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _record(config: ExperimentConfig, driver: str) -> dict:
    """The run record of `driver`: theta, alpha, `theorem` and the fields
    `EXPERIMENTS` says the driver reads, but not `threads`."""
    d = {"theta": config.params.theta, "alpha": config.params.alpha,
         "theorem": config.theorem}
    for name in EXPERIMENTS[driver].reads:
        if name != "threads":
            v = getattr(config, name)
            d[name] = list(v) if isinstance(v, tuple) else v
    return d


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


def _profiles(batch, config: ExperimentConfig, n: int, flavor: str) -> np.ndarray:
    """(samples, width) rows of `batch`, one per environment stream.

    `batch` is `batch_final_profiles` or `batch_diag_avoiding_profiles`;
    drivers pass the module attribute when they run, so a wrapper put there
    sees every stream block.
    """
    def work(block):
        start, cnt = block
        streams = np.arange(start, start + cnt, dtype=np.uint64)
        return batch(config.params, n, flavor, config.seed, streams)
    parts = _map_blocks(work, _stream_blocks(config, config.samples),
                        config.threads)
    return np.vstack(parts)


def line_ensembles(params: ModelParams, order: int, kmax: int, seed: int,
                   stream: int, count: int) -> list[LineEnsemble]:
    """Curves 1..kmax of the order-`order` ensembles of the standard
    environments on streams stream..stream+count-1, built one at a time (on
    a 2-core machine a two-thread pool ran at 0.70-0.73x of serial speed).
    `line_ensemble` is this module's attribute, so a wrapper put there sees
    every ensemble."""
    return [line_ensemble(symmetrize(generate_environment(
                params, order + 1, "standard", seed, stream + i)), kmax, order=order)
            for i in range(count)]


# ---------------------------------------------------------------------------
# trend checks


def _gap_interval(ci: Interval, target: float) -> Interval:
    lo, hi = abs(ci.lo - target), abs(ci.hi - target)
    if ci.lo <= target <= ci.hi:
        return Interval(0.0, max(lo, hi))
    return Interval(min(lo, hi), max(lo, hi))


def _trend(name: str, points, cis, *, increasing: bool = False) -> Check:
    """Trend check: strictly ordered point estimates plus CI non-contradiction."""
    pts = [float(p) for p in points]
    if increasing:
        ordered = all(b > a for a, b in zip(pts, pts[1:]))
        contradicted = any(nxt.hi < cur.lo for cur, nxt in zip(cis, cis[1:]))
    else:
        ordered = all(b < a for a, b in zip(pts, pts[1:]))
        contradicted = any(nxt.lo > cur.hi for cur, nxt in zip(cis, cis[1:]))
    detail = " -> ".join(f"{p:.6g}" for p in pts)
    if contradicted:
        detail += " (contradicted at 99% CI)"
    return Check(name, ordered and not contradicted, detail)


# ---------------------------------------------------------------------------
# drivers


def run_pinning(config: ExperimentConfig) -> StatReport:
    """Endpoint tail masses against the walk limit at each size.

    For each k > 0 of `k_grid` and the deep k = ceil(deep_m sqrt(N)), k < N,
    the log mass beyond k is KS-tested against the walks' logsumexp(-S_k ..
    -S_{N-1}) - log Q; log space keeps underflowing tails finite, and the
    sum of positive weights avoids the cancellation of 1 - (mass below k).
    Rows give the median and 95% quantile of the mass at each k of `k_grid`.
    """
    rep = StatReport("pinning", _record(config, "pinning"),
                     ("N", "k", "median_tail", "upper_q95_tail"))
    sig = config.significance
    streams = (np.asarray(config.stream, dtype=np.uint64)
               + np.arange(config.samples, dtype=np.uint64))
    walks = limiting_endpoint_pmf(config.params, config.seed, streams,
                                  max(config.sizes) - 1, 2.0**-53)
    log_q = np.log(walks.q)
    # far-below-maximum terms of a logsumexp and deep masses round to 0.0
    with np.errstate(under="ignore"):
        for n in config.sizes:
            prof = _profiles(batch_final_profiles, config, n, "standard")
            total = logsumexp(prof, axis=1)
            deep = math.ceil(config.deep_m * math.sqrt(n))
            for k in sorted(set(config.k_grid) | {deep}):
                if k >= n:
                    break
                tail = logsumexp(prof[:, k:], axis=1) - total
                if k in config.k_grid:
                    mass = np.exp(tail)
                    rep.rows.append((n, k, float(np.median(mass)),
                                     float(np.quantile(mass, 0.95))))
                if k > 0:
                    walk_tail = logsumexp(-walks.s[:, k:n], axis=1) - log_q
                    rep.checks.append(_ks_check(f"tail_mass_k{k}_walk_limit_N{n}",
                                                ks_test(tail, walk_tail), sig))
    return rep


def run_walk_attractor(config: ExperimentConfig) -> StatReport:
    """Free-energy increments along the final line against the walk law.

    Per size, increments r = 1..r_max are KS-tested against `increment_cdf`.
    The stationary flavor also tests consecutive increments for
    independence, which needs `CHI2_MIN_PAIRS` samples; fewer are refused.
    """
    if config.sizes[0] < 2:
        raise ConfigError(f"sizes must be >= 2 for an increment, got {config.sizes[0]}")
    if config.flavor == "stationary" and config.samples < CHI2_MIN_PAIRS:
        raise ConfigError(f"--flavor stationary needs samples >= {CHI2_MIN_PAIRS} "
                          "for its chi-square independence checks, got "
                          f"{config.samples}")
    rep = StatReport(f"walk_attractor_{config.flavor}", _record(config, "walk"),
                     ("N", "r", "ks_distance", "ks_pvalue"))
    cdf = lambda v: increment_cdf(config.params, v)
    sig = config.significance
    for n in config.sizes:
        prof = _profiles(batch_final_profiles, config, n, config.flavor)
        r_hi = min(config.r_max, n - 1)
        for r in range(1, r_hi + 1):
            res = ks_test(prof[:, r - 1] - prof[:, r], cdf)
            rep.rows.append((n, r, res.statistic, res.pvalue))
            rep.checks.append(_ks_check(f"increment_ks_r{r}_N{n}", res, sig))
        if config.flavor == "stationary" and r_hi >= 2:
            for r in range(1, min(3, r_hi)):
                a = prof[:, r - 1] - prof[:, r]
                b = prof[:, r] - prof[:, r + 1]
                res = chi2_independence(a, b)
                rep.checks.append(Check(
                    f"independence_r{r}_r{r + 1}_N{n}", res.pvalue > sig,
                    f"chi2={res.statistic:.1f} p={res.pvalue:.4g}"))
    return rep


def run_quenched_limit(config: ExperimentConfig) -> StatReport:
    """Quenched endpoint pmf against the normalized walk series weights.

    Each walk's weights e^{-S_r} / Q come from `limiting_endpoint_pmf` with
    the tail of Q certified below 2^-53, half an ulp of Q >= 1; only Q and
    S_r for r <= r_max are kept.  `walk_series_certified` fails
    when any walk reaches the cap of the certificate uncertified.
    """
    rep = StatReport("quenched_limit", _record(config, "quenched"),
                     ("r", "ks_distance", "ks_pvalue", "polymer_mean",
                      "walk_mean", "polymer_var", "walk_var"))
    sig = config.significance
    n = max(config.sizes)
    prof = _profiles(batch_final_profiles, config, n, "standard")
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
        f"{int(walk.m.max())}, max tail bound {walk.tail_bound.max():.3g}"))
    walk_pmf = walk.pmf
    for r in range(0, r_hi + 1):
        wside = walk_pmf[:, r]
        res = ks_test(pmf[:, r], wside)
        rep.rows.append((r, res.statistic, res.pvalue,
                         float(pmf[:, r].mean()), float(wside.mean()),
                         float(pmf[:, r].var(ddof=1)),
                         float(wside.var(ddof=1))))
        rep.checks.append(_ks_check(f"marginal_ks_r{r}", res, sig))

    # boundary-weight product identity: Q R0 ~ inverse gamma of shape -2 alpha
    keys = lane_keys(config.seed, streams, np.uint64(LANE_BOUNDARY))
    r0 = np.exp(-log_gamma_draws(config.params.theta - config.params.alpha, keys))
    shape = -2.0 * config.params.alpha
    rep.checks.append(_ks_check(
        "qr0_inverse_gamma", ks_test(walk.q * r0, lambda w: gammaincc(shape, 1.0 / w)),
        sig))
    return rep


def _ks_check(name: str, res: TestResult, sig: float) -> Check:
    """The verdict of a KS test at level `sig`."""
    return Check(name, res.pvalue > sig, f"D={res.statistic:.4f} p={res.pvalue:.4g}")


def _z_check(name: str, est: float, target: float, se: float,
             sig: float) -> Check:
    """Large-sample two-sided z test of est = target."""
    z = (est - target) / se
    p = 2.0 * float(normal_cdf(-abs(z)))
    return Check(name, p > sig, f"{est:.4f} vs {target:g}: z={z:.2f} p={p:.4g}")


def run_gaussian_fluct(config: ExperimentConfig) -> StatReport:
    """Normalized diagonal and near-diagonal free energies against a Gaussian.

    At each size the stationary diagonal's mean is z-tested against its
    exact value rate N + psi(theta - alpha), with standard error
    sd / sqrt(samples); the rows `coupled_offset_*` give the mean and sd of
    D_N = F_N(standard) - F_N(stationary) on the same streams.  The standard
    diagonal's variance is z-tested against 1, with standard error
    sqrt((m4 - m2^2) / samples) from the sample central moments.
    """
    if config.sizes[0] < 2:
        raise ConfigError(f"sizes must be >= 2 for an off-diagonal, got {config.sizes[0]}")
    rep = StatReport("gaussian_fluct", _record(config, "fluct"),
                     ("N", "statistic", "value"))
    sig = config.significance
    c = constants(config.params)
    rate, tau = c.free_energy_rate, c.increment_drift
    sigma = math.sqrt(c.clt_variance)
    for n in config.sizes:
        prof = _profiles(batch_final_profiles, config, n, "standard")
        stationary = _profiles(batch_final_profiles, config, n, "stationary")[:, 0]
        g = max(1, int(n ** 0.25))
        z = (prof[:, 0] - rate * n) / (sigma * math.sqrt(n))
        z_line = ((logsumexp(prof[:, g:], axis=1) - rate * n + g * tau)
                  / (sigma * math.sqrt(n)))
        corr = float(np.corrcoef(prof[:, 0], prof[:, g])[0, 1])
        m, v = float(z.mean()), float(z.var(ddof=1))
        ksr = ks_test(z, normal_cdf)
        offset = prof[:, 0] - stationary
        rep.rows += [(n, "diag_mean", m), (n, "diag_variance", v),
                     (n, "diag_ks_distance", ksr.statistic),
                     (n, "diag_ks_pvalue", ksr.pvalue),
                     (n, "line_mean", float(z_line.mean())),
                     (n, "line_variance", float(z_line.var(ddof=1))),
                     (n, "offdiag_corr", corr),
                     (n, "coupled_offset_mean", float(offset.mean())),
                     (n, "coupled_offset_sd", float(offset.std(ddof=1)))]
        d2 = (z - m) ** 2
        m2, m4 = float(d2.mean()), float((d2 * d2).mean())
        rep.checks.append(_z_check(
            f"diag_mean_exact_N{n}", float(stationary.mean()),
            rate * n + float(digamma(config.params.shape_boundary)),
            float(stationary.std(ddof=1)) / math.sqrt(stationary.size), sig))
        rep.checks.append(_z_check(f"diag_variance_one_N{n}", v, 1.0,
                                   math.sqrt((m4 - m2 * m2) / z.size), sig))
    n_big = config.sizes[-1]
    rep.checks.append(Check(f"diag_mean_window_N{n_big}",
                            abs(m) <= 0.3, f"mean {m:.4f}"))
    rep.checks.append(Check(f"diag_variance_window_N{n_big}",
                            0.7 <= v <= 1.3, f"variance {v:.4f}"))
    rep.checks.append(Check(f"offdiag_corr_N{n_big}", corr > 0.9,
                            f"corr {corr:.4f}"))
    return rep


def run_lln_profile(config: ExperimentConfig) -> StatReport:
    """Free-energy rates against their limits, and the top-curve average."""
    if config.sizes[0] < 2:
        raise ConfigError(f"sizes must be >= 2 for diagonal avoidance, got {config.sizes[0]}")
    if max(config.samples, config.small_samples) > MAX_BOOTSTRAP_VALUES:
        raise ConfigError(f"samples and small_samples must be <= {MAX_BOOTSTRAP_VALUES}, "
                          "or bootstrap intervals would share lanes")
    rep = StatReport("lln_profile", _record(config, "lln"),
                     ("N", "statistic", "median", "ci_lo", "ci_hi"))
    k = k_star(config.params)
    for order in config.small_sizes:
        if order < 2 * k + 1:
            raise ConfigError(f"small size {order} is below 2k*+1 = {2 * k + 1}, "
                              "too small for the top-curve average")
    lanes = count(0, CI_STRIDE)     # each bootstrap interval's own lane block
    c = constants(config.params)
    rate = c.free_energy_rate

    # (row, trend check, profiles, flavor, first position summed, limit): the
    # point-to-line rate, and the diagonal-avoiding one, (2/q) log at q = 2n,
    # under the alpha -> 0 diagonal law
    rates = (("ptl_rate", "ptl_rate", batch_final_profiles, "standard", 1, rate),
             ("diag_avoiding_rate", "diag_avoiding", batch_diag_avoiding_profiles,
              "alpha-zero-diagonal", 0, diagonal_rate_alpha_zero(config.params.theta)))
    for row, trend, batch, flavor, first, limit in rates:
        gaps, gap_cis = [], []
        for n in config.sizes:
            prof = _profiles(batch, config, n, flavor)
            v = logsumexp(prof[:, first:], axis=1) / n
            med = float(np.median(v))
            ci = bootstrap_ci(v, np.median, seed=config.seed,
                              stream=config.stream, lane_base=next(lanes))
            rep.rows.append((n, row, med, ci.lo, ci.hi))
            gaps.append(abs(med - limit))
            gap_cis.append(_gap_interval(ci, limit))
        if len(config.sizes) >= 2:
            rep.checks.append(_trend(f"{trend}_gap_to_limit_shrinking",
                                     gaps, gap_cis))

    # sup over positions of the averaged top curves, small orders only
    dk = delta_k(config.params, k)
    margins, margin_cis = [], []
    for order in config.small_sizes:
        width = curve_length(order, 2 * k)
        vals = np.empty(config.small_samples)
        for i, ens in enumerate(line_ensembles(config.params, order, 2 * k, config.seed,
                                               config.stream, config.small_samples)):
            avg = np.mean([ens.curves[j][:width] for j in range(2 * k)], axis=0)
            vals[i] = float(avg.max()) / order - (rate - 0.5 * dk)
        med = float(np.median(vals))
        ci = bootstrap_ci(vals, np.median, seed=config.seed,
                          stream=config.stream, lane_base=next(lanes))
        rep.rows.append((order, "top_avg_margin", med, ci.lo, ci.hi))
        margins.append(med)
        margin_cis.append(ci)
    # finite sizes sit below the averaged-growth ceiling and rise toward it
    rep.checks.append(Check("top_avg_margin_nonpositive", margins[-1] <= 0.0,
                            f"margin {margins[-1]:.4f} at order "
                            f"{config.small_sizes[-1]}"))
    if len(config.small_sizes) >= 2:
        rep.checks.append(_trend("top_avg_margin_rising_toward_ceiling",
                                 margins, margin_cis, increasing=True))
    return rep


class Experiment(NamedTuple):
    """One experiment: its help line, its driver, and the ExperimentConfig
    fields the driver reads besides `params` and `theorem`.  The CLI takes
    options for exactly these fields, and the run record names them."""

    summary: str
    run: Callable[[ExperimentConfig], StatReport]
    reads: tuple[str, ...]


_READ_BY_ALL = ("sizes", "samples", "seed", "stream", "threads", "out")

EXPERIMENTS = {
    "pinning": Experiment("endpoint tail masses across sizes", run_pinning,
                          _READ_BY_ALL + ("significance", "k_grid", "deep_m")),
    "walk": Experiment("increment law against the attractor walk",
                       run_walk_attractor,
                       _READ_BY_ALL + ("significance", "flavor", "r_max")),
    "quenched": Experiment("endpoint pmf vs walk-functional limit",
                           run_quenched_limit,
                           _READ_BY_ALL + ("significance", "r_max", "walk_samples")),
    "fluct": Experiment("normalized free-energy fluctuations", run_gaussian_fluct,
                        _READ_BY_ALL + ("significance",)),
    "lln": Experiment("free-energy rate trends and top-curve bound",
                      run_lln_profile,
                      _READ_BY_ALL + ("small_sizes", "small_samples")),
}
