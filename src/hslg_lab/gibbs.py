"""Gibbs measures on diamond-lattice domains of the half-space line ensemble.

The diamond lattice of order n has rows i = 1..n with 2n - 2i + 2 positions
each.  Directed colored edges are placed by parity: an odd position j sends
an edge rightward to j + 1 (blue from odd rows, red from even rows) and, for
j >= 3, leftward to j - 1 (red from odd rows, blue from even rows); an even
position j in row i >= 2 sends a black pair down to (i - 1, j - 1) and
(i - 1, j + 1).  Every edge weight depends on the difference x between the
tail and head values,

    log W(x) = c * x - exp(x),

with c = theta - alpha on blue edges, theta + alpha on red edges, and 0 on
black edges.  The unnormalized log-density of a value assignment over a
region is the sum over edges meeting the region.

Single-site conditionals all have the log-concave form
a*u - b*exp(u) - c*exp(-u), so the sampler runs slice sampling (stepping-out
width 2, unlimited shrink) over a two-color checkerboard: every edge joins an
odd position to an even one, hence sites of equal position parity never
interact and update in one vectorized batch.

The curve-ordering check counts how often sampled line ensembles break the
four slack ordering inequalities between neighbouring curves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .multilayer import LineEnsemble
from .rng import LANE_CHAIN, lane_keys, uniforms
from .special import ModelParams

Site = tuple[int, int]

BLUE = "blue"
RED = "red"
BLACK = "black"

_EXP_CAP = 709.0  # exp overflows above this; caps only affect -inf tails


def edge_shape(params: ModelParams, color: str) -> float:
    """Linear coefficient of log W for one edge color."""
    if color == BLUE:
        return params.theta - params.alpha
    if color == RED:
        return params.theta + params.alpha
    if color == BLACK:
        return 0.0
    raise ValueError(f"unknown edge color {color!r}")


def row_length(n: int, i: int) -> int:
    return 2 * n - 2 * i + 2


def lattice_sites(n: int) -> tuple[Site, ...]:
    """All sites of the order-n diamond lattice, row-major."""
    if n < 1:
        raise ValueError("lattice order must be >= 1")
    return tuple((i, j) for i in range(1, n + 1)
                 for j in range(1, row_length(n, i) + 1))


def gibbs_region(n: int) -> frozenset[Site]:
    """Sites eligible as interior of a Gibbs domain: rows < n, j < row end."""
    return frozenset((i, j) for i in range(1, n)
                     for j in range(1, row_length(n, i)))


@dataclass(frozen=True)
class ColoredEdge:
    tail: Site
    head: Site
    color: str


def colored_edges(n: int) -> tuple[ColoredEdge, ...]:
    """Every directed colored edge of the order-n lattice."""
    edges = []
    for p, q in lattice_sites(n):
        if q % 2 == 1:
            if q + 1 <= row_length(n, p):
                edges.append(ColoredEdge((p, q), (p, q + 1),
                                         BLUE if p % 2 == 1 else RED))
            if q >= 3:
                edges.append(ColoredEdge((p, q), (p, q - 1),
                                         RED if p % 2 == 1 else BLUE))
        elif p >= 2:
            edges.append(ColoredEdge((p, q), (p - 1, q - 1), BLACK))
            edges.append(ColoredEdge((p, q), (p - 1, q + 1), BLACK))
    return tuple(edges)


@dataclass(frozen=True)
class DiamondDomain:
    """A connected interior region plus the edges and boundary it touches.

    `edges` holds every lattice edge with at least one interior endpoint;
    edges between two boundary sites contribute a constant factor and are
    dropped.  `boundary` lists the non-interior endpoints of `edges`.
    """

    n: int
    interior: tuple[Site, ...]
    boundary: tuple[Site, ...]
    edges: tuple[ColoredEdge, ...]


def diamond_domain(n: int, interior: Iterable[Site],
                   require_gibbs_region: bool = True) -> DiamondDomain:
    """Build a DiamondDomain, checking membership and connectivity.

    `require_gibbs_region=False` admits sites outside the conditional-law
    region (last row, row ends) for sampler diagnostics on tiny domains.
    """
    sites = {(int(i), int(j)) for i, j in interior}
    if not sites:
        raise ValueError("domain interior is empty")
    lattice = set(lattice_sites(n))
    if not sites <= lattice:
        bad = min(sites - lattice)
        raise ValueError(f"site {bad} outside the order-{n} lattice")
    if require_gibbs_region and not sites <= gibbs_region(n):
        bad = min(sites - gibbs_region(n))
        raise ValueError(f"site {bad} outside the Gibbs region of order {n}")

    edges = tuple(e for e in colored_edges(n)
                  if e.tail in sites or e.head in sites)

    # connectivity over interior-interior edges, directions ignored
    adj: dict[Site, set[Site]] = {s: set() for s in sites}
    for e in edges:
        if e.tail in sites and e.head in sites:
            adj[e.tail].add(e.head)
            adj[e.head].add(e.tail)
    seen = {next(iter(sites))}
    frontier = list(seen)
    while frontier:
        here = frontier.pop()
        for other in adj[here]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    if seen != sites:
        raise ValueError("domain interior is not connected")

    boundary = sorted({v for e in edges for v in (e.tail, e.head)} - sites)
    return DiamondDomain(n, tuple(sorted(sites)), tuple(boundary), edges)


def _edge_term(c: float, x: float) -> float:
    if x == -math.inf:
        return 0.0 if c == 0.0 else -math.inf
    if x > _EXP_CAP:
        return -math.inf
    return c * x - math.exp(x)


def gibbs_log_density(params: ModelParams, domain: DiamondDomain,
                      interior_values: Mapping[Site, float],
                      boundary_values: Mapping[Site, float]) -> float:
    """Sum of log W over the domain's edges; unnormalized.

    Every edge endpoint must be valued: interior sites in `interior_values`,
    boundary sites in `boundary_values`.
    """
    def value(site: Site) -> float:
        if site in interior_values:
            return float(interior_values[site])
        if site in boundary_values:
            return float(boundary_values[site])
        raise KeyError(f"no value supplied for site {site}")

    total = 0.0
    for e in domain.edges:
        total += _edge_term(edge_shape(params, e.color),
                            value(e.tail) - value(e.head))
    return total


# ---------------------------------------------------------------------------
# slice sampling


class _UniformField:
    """Counter-based uniforms on a fixed key grid; columns selectable.

    Each draw advances one shared counter so the stream is a pure function
    of (seed, stream, lane, counter) no matter which columns get used.
    """

    def __init__(self, seed: int, stream: int, rows: int, cols: int):
        lanes = LANE_CHAIN + np.arange(rows * cols, dtype=np.uint64)
        self._keys = lane_keys(seed, stream, lanes).reshape(rows, cols)
        self._q = 0

    def draw(self, cols=None) -> np.ndarray:
        keys = self._keys if cols is None else self._keys[:, cols]
        u = uniforms(keys, np.uint64(self._q))
        self._q += 1
        return u


def _conditional_logpdf(a, b, c, u):
    """a*u - b*exp(u) - c*exp(-u), finite-safe for large |u|."""
    with np.errstate(over="ignore"):
        val = a * u
        val = val - np.where(b != 0.0, b * np.exp(np.minimum(u, _EXP_CAP)), 0.0)
        val = val - np.where(c != 0.0, c * np.exp(np.minimum(-u, _EXP_CAP)), 0.0)
    return val


def _slice_update(a, b, c, u0, draw, width=2.0, max_expand=10000, max_shrink=300):
    """One slice-sampling step for each coordinate of u0, vectorized.

    `draw()` must return fresh uniforms of u0's shape.  Requires every
    conditional to be proper (finite log-density at the current point).
    """
    f0 = _conditional_logpdf(a, b, c, u0)
    if not np.all(np.isfinite(f0)):
        raise RuntimeError("degenerate single-site conditional (infinite term)")
    y = f0 + np.log(draw())
    lo = u0 - width * draw()
    hi = lo + width

    for _ in range(max_expand):
        open_lo = _conditional_logpdf(a, b, c, lo) > y
        if not open_lo.any():
            break
        lo = np.where(open_lo, lo - width, lo)
    else:
        raise RuntimeError("slice stepping-out did not terminate (left)")
    for _ in range(max_expand):
        open_hi = _conditional_logpdf(a, b, c, hi) > y
        if not open_hi.any():
            break
        hi = np.where(open_hi, hi + width, hi)
    else:
        raise RuntimeError("slice stepping-out did not terminate (right)")

    out = np.array(u0, dtype=float, copy=True)
    active = np.ones(np.shape(u0), dtype=bool)
    for _ in range(max_shrink):
        x = lo + (hi - lo) * draw()
        accept = active & (_conditional_logpdf(a, b, c, x) >= y)
        out[accept] = x[accept]
        active &= ~accept
        if not active.any():
            return out
        # rejected points shrink the bracket toward the current state
        shrink_lo = active & (x < u0)
        lo = np.where(shrink_lo, x, lo)
        hi = np.where(active & ~shrink_lo, x, hi)
    raise RuntimeError("slice shrink did not terminate")


def effective_sample_size(trace) -> float:
    """ESS from the initial positive sequence of lag-pair autocorrelations.

    Accepts a 1-d trace or a (draws, chains) array; chains contribute their
    within-chain autocorrelation and the total is summed over chains.
    """
    x = np.asarray(trace, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    draws, chains = x.shape
    if draws < 4:
        return float(draws * chains)
    total = 0.0
    for ch in range(chains):
        xc = x[:, ch] - x[:, ch].mean()
        var = float(xc @ xc) / draws
        if var == 0.0:
            total += float(draws)
            continue
        max_lag = min(draws - 2, 1000)
        rho = [1.0]
        for lag in range(1, max_lag + 1):
            rho.append(float(xc[:-lag] @ xc[lag:]) / (draws * var))
        tau = -1.0
        m = 0
        while 2 * m + 1 < len(rho):
            pair = rho[2 * m] + rho[2 * m + 1]
            if pair <= 0.0:
                break
            tau += 2.0 * pair
            m += 1
        total += draws / max(tau, 1.0)
    return float(min(total, draws * chains))


# ---------------------------------------------------------------------------
# generic domain sampler


@dataclass(frozen=True)
class GibbsSample:
    """Thinned MCMC output over a diamond domain.

    `samples[s, c, t]` is draw s of chain c at interior site `sites[t]`;
    `ess` holds the per-site effective sample size pooled over chains.
    """

    domain: DiamondDomain
    sites: tuple[Site, ...]
    samples: np.ndarray
    ess: np.ndarray

    @property
    def flat(self) -> np.ndarray:
        """(draws * chains, sites) view for empirical statistics."""
        return self.samples.reshape(-1, self.samples.shape[-1])


def _site_system(params: ModelParams, domain: DiamondDomain,
                 boundary: Mapping[Site, float]):
    """Per-site conditional tables: constant drift A0 and B/C slot indices.

    The value vector is laid out [interior | boundary | +inf | -inf]; the two
    sentinels zero out unused slots (exp(-inf) = 0 on either side).
    """
    sites = domain.interior
    ni = len(sites)
    col = {s: t for t, s in enumerate(sites)}
    nb = len(domain.boundary)
    bcol = {s: ni + t for t, s in enumerate(domain.boundary)}
    missing = [s for s in domain.boundary if s not in boundary]
    if missing:
        raise ValueError(f"boundary value missing for site {missing[0]}")

    pad_b, pad_c = ni + nb, ni + nb + 1
    a0 = np.zeros(ni)
    b_idx = np.full((ni, 2), pad_b, dtype=np.int64)
    c_idx = np.full((ni, 2), pad_c, dtype=np.int64)
    b_used = np.zeros(ni, dtype=np.int64)
    c_used = np.zeros(ni, dtype=np.int64)

    def value_index(site: Site) -> int:
        return col[site] if site in col else bcol[site]

    for e in domain.edges:
        c = edge_shape(params, e.color)
        if e.tail in col:
            t = col[e.tail]
            a0[t] += c
            other = e.head
            if other not in col and not np.isfinite(boundary[other]):
                if not (c == 0.0 and boundary[other] == math.inf):
                    raise ValueError(
                        f"infinite boundary at {other} on a {e.color} edge")
            b_idx[t, b_used[t]] = value_index(other)
            b_used[t] += 1
        if e.head in col:
            t = col[e.head]
            a0[t] -= c
            other = e.tail
            if other not in col and not np.isfinite(boundary[other]):
                if not (c == 0.0 and boundary[other] == -math.inf):
                    raise ValueError(
                        f"infinite boundary at {other} on a {e.color} edge")
            c_idx[t, c_used[t]] = value_index(other)
            c_used[t] += 1
    if (b_used > 2).any() or (c_used > 2).any():
        raise AssertionError("a site has more than two slots per side")

    # two-color checkerboard by position parity: every edge flips it
    odd = [t for t, s in enumerate(sites) if s[1] % 2 == 1]
    even = [t for t, s in enumerate(sites) if s[1] % 2 == 0]
    classes = [np.asarray(cls, dtype=np.int64) for cls in (odd, even) if cls]
    for e in domain.edges:
        if e.tail in col and e.head in col:
            assert e.tail[1] % 2 != e.head[1] % 2, "edge within a parity class"

    bvals = np.array([float(boundary[s]) for s in domain.boundary])
    return sites, a0, b_idx, c_idx, classes, bvals


def mcmc_sample_gibbs(params: ModelParams, domain: DiamondDomain,
                      boundary: Mapping[Site, float], *, samples: int = 200,
                      chains: int = 2, burn_in: int = 1000, thin: int = 10,
                      seed: int = 0, stream: int = 0,
                      ess_floor: float = 50.0) -> GibbsSample:
    """Slice-sampling sweeps over the domain, checkerboard order.

    Returns `samples` thinned draws per chain after `burn_in` sweeps.  The
    per-site effective sample size is reported on the result and a
    RuntimeWarning fires when the worst site falls below `ess_floor`.
    """
    if samples < 1 or chains < 1 or burn_in < 0 or thin < 1:
        raise ValueError("invalid sampling schedule")
    sites, a0, b_idx, c_idx, classes, bvals = _site_system(
        params, domain, boundary)
    ni = len(sites)

    finite = bvals[np.isfinite(bvals)]
    start = float(finite.mean()) if finite.size else 0.0
    vals = np.empty((chains, ni + bvals.size + 2))
    vals[:, :ni] = start
    vals[:, ni:ni + bvals.size] = bvals
    vals[:, ni + bvals.size] = math.inf    # pad slot for the exp(u) side
    vals[:, ni + bvals.size + 1] = -math.inf

    field = _UniformField(seed, stream, chains, ni)

    def sweep():
        for cls in classes:
            with np.errstate(over="ignore"):
                b = np.exp(-vals[:, b_idx[cls]]).sum(axis=2)
                c = np.exp(vals[:, c_idx[cls]]).sum(axis=2)
            vals[:, cls] = _slice_update(a0[cls], b, c, vals[:, cls],
                                         lambda: field.draw(cls))

    for _ in range(burn_in):
        sweep()
    out = np.empty((samples, chains, ni))
    for s in range(samples):
        for _ in range(thin):
            sweep()
        out[s] = vals[:, :ni]

    ess = np.array([effective_sample_size(out[:, :, t]) for t in range(ni)])
    if ess.min() < ess_floor:
        worst = sites[int(ess.argmin())]
        warnings.warn(
            f"effective sample size {ess.min():.1f} at site {worst} "
            f"below floor {ess_floor}", RuntimeWarning, stacklevel=2)
    return GibbsSample(domain, sites, out, ess)


# ---------------------------------------------------------------------------
# curve-ordering check


@dataclass(frozen=True)
class OrderingReport:
    """Violation counts of the four slack ordering inequalities.

    Index order: (1) odd-above-right H(i, 2p+1) vs H(i, 2p); (2)
    odd-above-left H(i, 2p-1) vs H(i, 2p); (3) next-curve vs right odd;
    (4) next-curve vs left odd.
    """

    violations: np.ndarray
    trials: np.ndarray
    slack: float | None

    @property
    def rates(self) -> np.ndarray:
        return self.violations / np.maximum(self.trials, 1)


def ordering_check(ensembles, k: int, slack: float | None = None) -> OrderingReport:
    """Empirical violation rates of the four ordering inequalities.

    Compares curves i = 1..k against curve i+1 at every even position, with
    additive slack log(n)^2 by default (or the given override), aggregated
    over one ensemble or an iterable of them.
    """
    if isinstance(ensembles, LineEnsemble):
        ensembles = [ensembles]
    violations = np.zeros(4, dtype=np.int64)
    trials = np.zeros(4, dtype=np.int64)
    seen = False
    for ens in ensembles:
        seen = True
        if ens.kmax < k + 1:
            raise ValueError(f"need curves up to {k + 1}, have {ens.kmax}")
        n = ens.n
        s = math.log(n) ** 2 if slack is None else float(slack)
        for i in range(1, k + 1):
            cur = ens.curves[i - 1]
            nxt = ens.curves[i]
            p = np.arange(1, n - i + 1)
            if p.size == 0:
                continue
            even = cur[2 * p - 1]           # H(i, 2p), 0-indexed storage
            right = cur[2 * p]              # H(i, 2p+1)
            left = cur[2 * p - 2]           # H(i, 2p-1)
            below = nxt[2 * p - 1]          # H(i+1, 2p)
            for t, bad in enumerate([right > even + s, left > even + s,
                                     below > right + s, below > left + s]):
                violations[t] += int(bad.sum())
                trials[t] += bad.size
    if not seen:
        raise ValueError("no ensembles supplied")
    return OrderingReport(violations, trials, slack)
