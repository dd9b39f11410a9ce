"""Statistical experiment drivers over batches of polymer environments.

Each driver consumes an ExperimentConfig, fans the environment batch out
over a worker pool in contiguous stream blocks (`_stream_blocks`), sweeps
each flavor once per block to the largest size, reads every size's profile
off that sweep, and returns a StatReport carrying CSV-ready rows, named
pass/fail checks, and its run record.  Every number is a function of its
own stream's lanes and of row-wise operations, so no block boundary, and
hence neither the block size nor the thread count, changes a single one.
`EXPERIMENTS` says, once per experiment, which driver runs it and which
ExperimentConfig fields that driver reads; the record names theta, alpha,
`theorem` and exactly those fields (`threads` left out, since it never
changes a number), so it names what the run read.

The checks test one size at a time, as the paper states its results.  Each
check of pinning, walk, quenched and fluct is a KS or z test at
`config.significance` of one size against a law the package computes (the
walk law of the endpoint and of the free-energy increments, the Beta law
of the walk series Q, the standard normal of the diagonal fluctuations, an
exact finite-N mean).  Endpoint tail masses are tested in log space, where
deep tails stay finite.  The walks of pinning and quenched carry their
series Q exactly (`walk.limiting_endpoint_pmf`), so no check rests on a
truncated sum.  lln reports the point-to-line rate's median beside its
limit and checks only that the top-curve average stays below its ceiling.

fluct's mean checks have nulls that hold at every size.  The stationary
flavor draws column 1 below the corner at shape theta - alpha, and then its
profile increments are i.i.d. walk increments at every N (the Burke
property).  log Z(2N-1, 1) is the sum of column 1's log weights and
log Z(N, N) - log Z(2N-1, 1) = S_{N-1}, so E[log Z_stat(N, N)] =
rate N + psi(theta - alpha) exactly; and the point-to-line sum less the
diagonal, log sum_{r>=1} Z_stat(N+r, N-r) / Z_stat(N, N), has the law of
log sum_{1<=r<N} e^{-S_r}, whose mean fluct takes from independent walks.
Together they give the point-to-line mean at every N.  The standard
model's mean sits an O(1) offset below rate N at finite N, so a test of
"mean 0" in the limit fails healthy runs; fluct reports that offset on the
same streams instead.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .environment import generate_environment, symmetrize
from .multilayer import LineEnsemble, curve_length, line_ensemble
from .polymer import batch_final_profiles, logsumexp
from .special import ModelParams, beta_cdf_logit, constants, delta_k, digamma, k_star
from .stats import KS_MIN_SAMPLES, SIGNIFICANCE, TestResult, ks_test, normal_cdf
from .walk import LimitingPmf, increment_cdf, limiting_endpoint_pmf
# no caller here; bench/traced.py wraps these under this module
from .multilayer import batch_diag_avoiding_profiles
from .polymer import partition_table
from .rng import lane_keys, log_gamma_draws
from .stats import bootstrap_ci
from .walk import walk_increment_matrix

BLOCK_SITES = 1 << 17       # sites on the widest anti-diagonal of one work item


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
        if self.small_samples < 1:
            raise ValueError("small_samples must be >= 1")
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
        if self.deep_m < 1:
            raise ValueError("deep_m must be >= 1")


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


def _stream_blocks(config: ExperimentConfig, total: int, n: int):
    """(first stream, count) of each work item of a sweep of `total` streams
    to size n: max(threads, ceil(total n / BLOCK_SITES)) contiguous blocks
    (but no empty one) whose counts differ by at most 1.  A block's widest
    diagonal, n sites per stream, then holds about BLOCK_SITES sites or
    fewer, and every thread gets a block."""
    count = min(total, max(config.threads, -(-total * n // BLOCK_SITES)))
    cuts = [total * b // count for b in range(count + 1)]
    return [(config.stream + lo, hi - lo) for lo, hi in zip(cuts, cuts[1:])]


def _profiles(config: ExperimentConfig, flavor: str,
              sizes: tuple[int, ...]) -> list[np.ndarray]:
    """The (samples, N) profile at each N of the increasing `sizes`, one
    row per environment stream, from `batch_final_profiles`.

    Each stream block of `_stream_blocks` makes one call, a sweep to n =
    max(sizes), and every size's profile is read off that sweep.  Wider
    blocks mean fewer, wider draw calls per anti-diagonal; a row's values
    do not depend on the block it is in.  The call goes through this
    module's attribute, so a wrapper put there sees every stream block.
    """
    n = sizes[-1]

    def work(block):
        start, cnt = block
        streams = np.arange(start, start + cnt, dtype=np.uint64)
        return batch_final_profiles(config.params, n, flavor, config.seed, streams, sizes)

    prof = np.vstack(_map_blocks(work, _stream_blocks(config, config.samples, n),
                                 config.threads))
    ends = np.cumsum(sizes)
    return np.split(prof, ends[:-1], axis=1)


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


def _walks(config: ExperimentConfig, count: int, kmax: int) -> LimitingPmf:
    """`count` walks numbered from config.stream, with S_0 .. S_kmax (at
    least S_1) and the exact log Q and log q1."""
    streams = (np.asarray(config.stream, dtype=np.uint64)
               + np.arange(count, dtype=np.uint64))
    return limiting_endpoint_pmf(config.params, config.seed, streams, kmax)


# ---------------------------------------------------------------------------
# drivers


def run_pinning(config: ExperimentConfig) -> StatReport:
    """Endpoint tail masses against the walk limit at each size.

    For each k > 0 of `k_grid` and the deep k = ceil(deep_m sqrt(N)), k < N,
    the log mass beyond k is KS-tested against the walks' logsumexp(-S_k ..
    -S_{N-1}) - log Q; log space keeps underflowing tails finite, and the
    sum of positive weights avoids the cancellation of 1 - (mass below k).
    The walks come from `_walks`, one per sample.  Rows give the median and
    95% quantile of the mass at each k of `k_grid`.  A run in which no such
    k lies in (0, N) at any size would test nothing, and is refused.
    """
    if not any(0 < k < n for n in config.sizes
               for k in config.k_grid + (math.ceil(config.deep_m * math.sqrt(n)),)):
        raise ConfigError("pinning needs a k of k_grid or ceil(deep_m sqrt(N)) with "
                          f"0 < k < N, got none at sizes {list(config.sizes)}")
    rep = StatReport("pinning", _record(config, "pinning"),
                     ("N", "k", "median_tail", "upper_q95_tail"))
    sig = config.significance
    walks = _walks(config, config.samples, max(config.sizes) - 1)
    profiles = _profiles(config, "standard", config.sizes)
    # far-below-maximum terms of a logsumexp and deep masses round to 0.0
    with np.errstate(under="ignore"):
        for n, prof in zip(config.sizes, profiles):
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
                    walk_tail = logsumexp(-walks.s[:, k:n], axis=1) - walks.log_q
                    rep.checks.append(_ks_check(f"tail_mass_k{k}_walk_limit_N{n}",
                                                ks_test(tail, walk_tail), sig))
    return rep


def run_walk_attractor(config: ExperimentConfig) -> StatReport:
    """Free-energy increments along the final line against the walk law.

    Per size, increments r = 1..r_max are KS-tested against `increment_cdf`.
    The stationary flavor's increments are i.i.d. at every N (the Burke
    property), so for r = 1, 2 the law of increment r + 1 is KS-tested
    between the samples whose increment r lies above its median and the
    rest.  Each half needs `KS_MIN_SAMPLES`, so fewer than twice that many
    samples are refused, and so are r_max below 2 and sizes below 3, which
    leave no pair of increments to test.
    """
    if config.sizes[0] < 2:
        raise ConfigError(f"sizes must be >= 2 for an increment, got {config.sizes[0]}")
    if config.flavor == "stationary" and (config.r_max < 2 or config.sizes[0] < 3):
        raise ConfigError("--flavor stationary needs r_max >= 2 and sizes >= 3 for "
                          f"its independence KS, got r_max {config.r_max} and size "
                          f"{config.sizes[0]}")
    if config.flavor == "stationary" and config.samples < 2 * KS_MIN_SAMPLES:
        raise ConfigError(f"--flavor stationary needs samples >= {2 * KS_MIN_SAMPLES} "
                          f"for its independence KS, got {config.samples}")
    rep = StatReport(f"walk_attractor_{config.flavor}", _record(config, "walk"),
                     ("N", "r", "ks_distance", "ks_pvalue"))
    cdf = lambda v: increment_cdf(config.params, v)
    sig = config.significance
    for n, prof in zip(config.sizes,
                       _profiles(config, config.flavor, config.sizes)):
        r_hi = min(config.r_max, n - 1)
        inc = prof[:, :r_hi] - prof[:, 1:r_hi + 1]
        for r in range(1, r_hi + 1):
            res = ks_test(inc[:, r - 1], cdf)
            rep.rows.append((n, r, res.statistic, res.pvalue))
            rep.checks.append(_ks_check(f"increment_ks_r{r}_N{n}", res, sig))
        if config.flavor == "stationary":
            for r in range(1, min(3, r_hi)):
                above = inc[:, r - 1] > np.median(inc[:, r - 1])
                rep.checks.append(_ks_check(f"independence_r{r}_r{r + 1}_N{n}",
                                            ks_test(inc[above, r], inc[~above, r]), sig))
    return rep


def run_quenched_limit(config: ExperimentConfig) -> StatReport:
    """Quenched endpoint pmf at one size against the walk series weights.

    The pmf at r = 1..r_max is KS-tested against e^{-S_r} / Q of the
    `walk_samples` walks of `_walks`, and at r = 0 through log q1 = log(Q -
    1), the log of the mass beyond 0 over the mass at 0: pmf[0] near 1 and
    the mass beyond 0 near 1 (weak binding) both round, log q1 at neither
    end, and the KS distance is that of pmf[0] = 1 / (1 + q1).
    (Q - 1) / Q = q1 / Q has the exact law
    Beta(theta + alpha, -2 alpha) (beta-gamma algebra; Dufresne, Scand.
    Actuarial J. 1990), and `q_beta_law` KS-tests its logit, log q1,
    against the logit of that law.  At weak binding a few percent of the
    law lies within an ulp of 1, where (Q - 1) / Q rounds to 1.0 and the
    KS would read the rounding; log q1 keeps those values apart, and KS is
    invariant under the logit.  More than one size is refused, since only
    one would be read, and so is size 1, which has no mass beyond 0.
    """
    if len(config.sizes) > 1:
        raise ConfigError(f"quenched takes one size, got {list(config.sizes)}")
    if config.sizes[0] < 2:
        raise ConfigError(f"sizes must be >= 2 for a mass beyond 0, got {config.sizes[0]}")
    rep = StatReport("quenched_limit", _record(config, "quenched"),
                     ("r", "ks_distance", "ks_pvalue", "polymer_mean",
                      "walk_mean", "polymer_var", "walk_var"))
    sig = config.significance
    n, = config.sizes
    prof, = _profiles(config, "standard", (n,))
    r_hi = min(config.r_max, n - 1)
    walk = _walks(config, config.walk_samples, r_hi)
    walk_pmf = walk.pmf
    # far-below-maximum terms of a logsumexp and tiny masses round to 0.0
    with np.errstate(under="ignore"):
        total = logsumexp(prof, axis=1)
        pmf = np.exp(prof - total[:, None])
        log_q1 = logsumexp(prof[:, 1:], axis=1) - prof[:, 0]
    for r in range(0, r_hi + 1):
        wside = walk_pmf[:, r]
        res = (ks_test(log_q1, walk.log_q1) if r == 0
               else ks_test(pmf[:, r], wside))
        rep.rows.append((r, res.statistic, res.pvalue,
                         float(pmf[:, r].mean()), float(wside.mean()),
                         float(pmf[:, r].var(ddof=1)),
                         float(wside.var(ddof=1))))
        rep.checks.append(_ks_check(f"marginal_ks_r{r}", res, sig))
    a, b = config.params.theta + config.params.alpha, -2.0 * config.params.alpha
    rep.checks.append(_ks_check("q_beta_law", ks_test(
        walk.log_q1, lambda v: beta_cdf_logit(a, b, v)), sig))
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
    sd / sqrt(samples).  The point-to-line sum less the diagonal on the
    same streams is z-tested against log sum_{1<=r<N} e^{-S_r} of `samples`
    independent walks from `_walks`, two means with the two variances
    summed, so the diagonal's O(N) variance does not enter.  The rows
    `coupled_offset_*` give the mean and sd of D_N = F_N(standard) -
    F_N(stationary) on the same streams.  The standard diagonal's variance
    is z-tested against 1, with standard error sqrt((m4 - m2^2) / samples)
    from the sample central moments.
    """
    if config.sizes[0] < 2:
        raise ConfigError(f"sizes must be >= 2 for an off-diagonal, got {config.sizes[0]}")
    rep = StatReport("gaussian_fluct", _record(config, "fluct"),
                     ("N", "statistic", "value"))
    sig = config.significance
    c = constants(config.params)
    rate, tau = c.free_energy_rate, c.increment_drift
    sigma = math.sqrt(c.clt_variance)
    standard = _profiles(config, "standard", config.sizes)
    stat_profiles = _profiles(config, "stationary", config.sizes)
    walks = _walks(config, config.samples, config.sizes[-1] - 1)
    for n, prof, stat in zip(config.sizes, standard, stat_profiles):
        stationary = stat[:, 0]
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
            rate * n + digamma(config.params.shape_boundary),
            float(stationary.std(ddof=1)) / math.sqrt(stationary.size), sig))
        ptl = logsumexp(stat[:, 1:], axis=1) - stationary
        walk_ptl = logsumexp(-walks.s[:, 1:n], axis=1)
        rep.checks.append(_z_check(
            f"ptl_mean_exact_N{n}", float(ptl.mean() - walk_ptl.mean()), 0.0,
            math.sqrt((ptl.var(ddof=1) + walk_ptl.var(ddof=1)) / ptl.size), sig))
        rep.checks.append(_z_check(f"diag_variance_one_N{n}", v, 1.0,
                                   math.sqrt((m4 - m2 * m2) / z.size), sig))
    return rep


def run_lln_profile(config: ExperimentConfig) -> StatReport:
    """The point-to-line rate beside its limit, and the top-curve average.

    Each row gives a statistic's median over the samples at one size with
    its limit: `rate` for the point-to-line rate (1/N) log sum_{p>=1}
    Z(N+p, N-p), and 0 for the margin of the top 2k* curves' average
    below its ceiling rate - delta_{k*} / 2.  The one check is that margin
    at the last small order.
    """
    if config.sizes[0] < 2:
        raise ConfigError("sizes must be >= 2 for a point-to-line sum off the "
                          f"diagonal, got {config.sizes[0]}")
    rep = StatReport("lln_profile", _record(config, "lln"),
                     ("N", "statistic", "median", "limit"))
    k = k_star(config.params)
    for order in config.small_sizes:
        if order < 2 * k + 1:
            raise ConfigError(f"small size {order} is below 2k*+1 = {2 * k + 1}, "
                              "too small for the top-curve average")
    rate = constants(config.params).free_energy_rate
    for n, prof in zip(config.sizes, _profiles(config, "standard", config.sizes)):
        v = logsumexp(prof[:, 1:], axis=1) / n
        rep.rows.append((n, "ptl_rate", float(np.median(v)), rate))

    # sup over positions of the averaged top curves, small orders only
    dk = delta_k(config.params, k)
    for order in config.small_sizes:
        width = curve_length(order, 2 * k)
        vals = np.empty(config.small_samples)
        for i, ens in enumerate(line_ensembles(config.params, order, 2 * k, config.seed,
                                               config.stream, config.small_samples)):
            avg = np.mean([ens.curves[j][:width] for j in range(2 * k)], axis=0)
            vals[i] = float(avg.max()) / order - (rate - 0.5 * dk)
        margin = float(np.median(vals))
        rep.rows.append((order, "top_avg_margin", margin, 0.0))
    # finite sizes sit below the averaged-growth ceiling
    rep.checks.append(Check("top_avg_margin_nonpositive", margin <= 0.0,
                            f"margin {margin:.4f} at order {config.small_sizes[-1]}"))
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
    "lln": Experiment("point-to-line rate and top-curve bound",
                      run_lln_profile,
                      _READ_BY_ALL + ("small_sizes", "small_samples")),
}
