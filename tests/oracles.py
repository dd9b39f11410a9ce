"""Independent reference implementations used by the test suite.

Everything here is written from the definitions, not from the library
internals: partition functions are literal sums over enumerated paths,
determinants are signed sums over permutations, the walk increment
density is the convolution integral of its two log-gamma terms, the
Gibbs log-density is the literal sum of log edge weights over the
lattice's edge list, the single-site rule a scan of that list, the gamma
sampler gathers the pending lanes and evaluates every test on each of
them, round by round, and the series Q of one walk is summed term by term
with its two tail gammas drawn one at a time, so they share no code with
the recurrences, the elimination, the closed form, the single-site rule,
the lane-dense sampler and the row-blocked log-space sums under test.

The last section holds references that only the tests call: the
path-code encoder, the increment density, the diagonal-avoiding values
(read from `multilayer._diag_avoiding_table`, the table `vq_tilde_exact`
sums), the image counts of the pair rewiring, and the Fraction route of
the line ensemble: quadrant tables of Fractions by their recurrence over
`weight_fraction`, each layer's Fraction determinant taken at every
evaluation, and its log read off the reduced numerator and denominator.
"""
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import betaln

from hslg_lab.environment import Environment, SymmetrizedEnvironment
from hslg_lab.multilayer import (_diag_avoiding_table, curve_length, exact_det, lgv_matrix,
                                 log_det_scaled, quadrant_log_table, staircase_site)
from hslg_lab.polymer import EXACT, LOG
from hslg_lab import rng
from hslg_lab.rng import LANE_CHAIN, LANE_TAIL, lane_keys, log_gamma_draws, uniforms, words
from hslg_lab.special import ModelParams
from hslg_lab.umap import Path, apply_umap, enumerate_disjoint_pairs

_U64 = np.uint64


@lru_cache(maxsize=None)
def paths_to(i: int, j: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All up-right paths from (1,1) to (i,j) that keep j <= i."""
    if (i, j) == (1, 1):
        return (((1, 1),),)
    if not 1 <= j <= i:
        return ()
    out = []
    if j <= i - 1:
        out.extend(p + ((i, j),) for p in paths_to(i - 1, j))
    if j > 1:
        out.extend(p + ((i, j),) for p in paths_to(i, j - 1))
    return tuple(out)


def path_weight(env: Environment, path) -> Fraction:
    w = Fraction(1)
    for i, j in path:
        # binary64 values are dyadic rationals; this conversion is exact
        w *= Fraction(env.weight(i, j))
    return w


def brute_partition(env: Environment, i: int, j: int) -> Fraction:
    """Sum of path weights, straight from the definition."""
    return sum((path_weight(env, p) for p in paths_to(i, j)), Fraction(0))


def brute_table(env: Environment) -> dict[tuple[int, int], Fraction]:
    return {(i, j): brute_partition(env, i, j) for i, j in env.sites()}


def permutation_det(matrix) -> Fraction:
    """Leibniz expansion: the signed sum over all k! permutations."""
    k = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        term = Fraction(-1 if inversions % 2 else 1)
        for a in range(k):
            term *= matrix[a][perm[a]]
        total += term
    return total


def quadrature_density(theta: float, alpha: float, x: float) -> float:
    """Increment density at x by adaptive quadrature of the convolution.

    X = log Y2 - log Y1 gives a Gamma-type integral once t = e^y is
    substituted; it is integrated in the log variable w = log t, windowed
    around the integrand's peak.
    """
    two_t = 2.0 * theta
    big = np.logaddexp(0.0, x)                 # log(1 + e^x)
    wstar = math.log(two_t) - big              # peak of the integrand
    shift = two_t * wstar - two_t              # integrand value at the peak
    left = max(60.0, 80.0 / two_t)             # slow e^{2 theta w} left tail

    def integrand(w):
        expo = two_t * w - math.exp(min(w + big, 700.0)) - shift
        return math.exp(min(expo, 700.0))

    res = quad(integrand, wstar - left, wstar + 60.0, epsabs=0.0,
               epsrel=1e-10, limit=200, full_output=1)
    if len(res) > 3:
        raise RuntimeError(f"density quadrature failed at x={x}: {res[3]}")
    val = res[0]
    if val <= 0.0:
        return 0.0
    logp = ((theta - alpha) * x - math.lgamma(theta + alpha)
            - math.lgamma(theta - alpha) + shift + math.log(val))
    return math.exp(logp)


_EXP_CAP = 709.0  # exp overflows above this; caps only affect -inf tails
_SHAPE = {"blue": lambda p: p.theta - p.alpha,
          "red": lambda p: p.theta + p.alpha,
          "black": lambda p: 0.0}


def _edge_term(c: float, x: float) -> float:
    if x == -math.inf:
        return 0.0 if c == 0.0 else -math.inf
    if x > _EXP_CAP:
        return -math.inf
    return c * x - math.exp(x)


def gibbs_log_density(params, edges, values) -> float:
    """Sum of log W(tail - head) over `edges`; unnormalized.

    `edges` holds (tail, head, color) triples and `values` maps every edge
    endpoint to its value; log W(x) = c*x - exp(x) with c = theta - alpha
    on blue edges, theta + alpha on red ones and 0 on black ones.
    """
    total = 0.0
    for tail, head, color in edges:
        if tail not in values or head not in values:
            missing = tail if tail not in values else head
            raise KeyError(f"no value supplied for site {missing}")
        total += _edge_term(_SHAPE[color](params),
                            float(values[tail]) - float(values[head]))
    return total


def lattice_sites(n: int) -> list[tuple[int, int]]:
    """All sites of the order-n diamond lattice, row-major."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, curve_length(n, i) + 1)]


def colored_edges(n: int) -> list:
    """Every (tail, head, color) of the order-n lattice, by tail, row-major,
    from the three placement rules: rightward from odd positions (blue from
    odd rows, red from even rows), leftward from odd positions >= 3 with the
    other color, and a black pair downward from even positions of rows >= 2."""
    edges = []
    for p, q in lattice_sites(n):
        if q % 2 == 1:
            if q < curve_length(n, p):
                edges.append(((p, q), (p, q + 1), "blue" if p % 2 == 1 else "red"))
            if q >= 3:
                edges.append(((p, q), (p, q - 1), "red" if p % 2 == 1 else "blue"))
        elif p >= 2:
            edges += [((p, q), (p - 1, q - 1), "black"), ((p, q), (p - 1, q + 1), "black")]
    return edges


def site_rule_by_scan(params, edges, site):
    """(a, heads, tails) at `site` by a scan of every edge: the shapes of the
    edges leaving it minus those entering it, and their far ends."""
    a, heads, tails = 0.0, [], []
    for tail, head, color in edges:
        if tail == site:
            a += _SHAPE[color](params)
            heads.append(head)
        elif head == site:
            a -= _SHAPE[color](params)
            tails.append(tail)
    return a, tuple(heads), tuple(tails)


def gather_log_gamma_draws(shape, keys, q_base=0, max_rounds=128):
    """Marsaglia-Tsang log-gamma draws, one pending-lane gather per round.

    Slot q_base holds the boost uniform and round r reads slots
    q_base+1+4r .. q_base+4+4r, as in `rng.log_gamma_draws`.  Every pending
    lane draws all four uniforms and takes every test: the ziggurat's
    rectangle, wedge and tail tests on the boundaries `rng._ZIG.x`, the
    squeeze ``u3 < 1 - 0.0331 (z*z)**2`` and the full log test.
    """
    x_b = rng._ZIG.x
    f_b = np.exp(-0.5 * x_b * x_b)
    keys = np.asarray(keys, dtype=np.uint64)
    shape_arr = np.broadcast_to(np.asarray(shape, dtype=float), keys.shape)
    boosted = shape_arr < 1.0
    d = (np.where(boosted, shape_arr + 1.0, shape_arr) - 1.0 / 3.0).reshape(-1)
    c = 1.0 / np.sqrt(9.0 * d)
    q0 = np.uint64(int(q_base) & 0xFFFFFFFFFFFFFFFF)
    flat_keys = keys.reshape(-1)
    out = np.empty(keys.shape)
    flat_out = out.reshape(-1)
    pending = np.arange(flat_keys.size)
    for r in range(max_rounds):
        k = flat_keys[pending]
        base = q0 + np.uint64(1 + 4 * r)
        word = words(k, base)
        layer = (word & np.uint64(255)).astype(np.intp)
        negative = (word >> np.uint64(8)) & np.uint64(1) == 1
        u = uniforms(k, base)
        ub = uniforms(k, base + np.uint64(1))
        uc = uniforms(k, base + np.uint64(2))
        u3 = uniforms(k, base + np.uint64(3))
        width = x_b[layer]
        a = u * width
        rectangle = u < x_b[layer + 1] / width
        wedge = f_b[layer] + ub * (f_b[layer + 1] - f_b[layer]) < np.exp(-0.5 * a * a)
        e = -np.log(ub) / x_b[1]
        in_tail = layer == 0
        a = np.where(in_tail & ~rectangle, x_b[1] + e, a)
        normal_ok = rectangle | np.where(in_tail, -2.0 * np.log(uc) > e * e, wedge)
        z = np.where(negative, -a, a)
        t = 1.0 + c[pending] * z
        v = t * t * t
        ok = normal_ok & (v > 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            squeeze = u3 < 1.0 - 0.0331 * ((z * z) * (z * z))
            full = np.log(u3) < 0.5 * z * z + d[pending] * (
                1.0 - v + np.log(np.where(ok, v, 1.0)))
        accept = ok & (squeeze | full)
        idx = pending[accept]
        flat_out[idx] = np.log(d[idx] * v[accept])
        pending = pending[~accept]
        if pending.size == 0:
            break
    else:
        raise RuntimeError("gamma rejection sampler failed to terminate")
    if boosted.any():
        out[boosted] += np.log(uniforms(keys[boosted], q0)) / shape_arr[boosted]
    return out


# ---------------------------------------------------------------------------
# the scalar walk and its series Q, one walk at a time


@dataclass(frozen=True)
class WalkSample:
    """Partial sums S_0..S_n of one walk, with the key that extends it."""

    params: ModelParams
    values: np.ndarray
    seed: int
    stream: int

    @property
    def n(self) -> int:
        return self.values.size - 1

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values)


def walk_increments(params: ModelParams, n: int, seed: int = 0,
                    stream: int = 0, start: int = 0) -> np.ndarray:
    """Increments X_{start+1} .. X_{start+n} of the walk keyed (seed, stream)."""
    if n < 0:
        raise ValueError("increment count must be nonnegative")
    idx = np.arange(start, start + n, dtype=np.uint64)
    base = _U64(LANE_CHAIN) + _U64(2) * idx
    k1 = lane_keys(seed, stream, base)
    k2 = lane_keys(seed, stream, base + _U64(1))
    y1 = log_gamma_draws(params.theta + params.alpha, k1)
    y2 = log_gamma_draws(params.theta - params.alpha, k2)
    return y2 - y1


def sample_walk(params: ModelParams, n: int, seed: int = 0,
                stream: int = 0) -> WalkSample:
    """Walk S_0 = 0, S_1, .., S_n."""
    inc = walk_increments(params, n, seed, stream)
    values = np.concatenate([[0.0], np.cumsum(inc)])
    return WalkSample(params, values, int(seed), int(stream))


def extend_walk(walk: WalkSample, n: int) -> WalkSample:
    """The same walk continued out to S_n (no-op when already long enough).

    The result is bitwise equal to `sample_walk(params, n, seed, stream)`:
    the new partial sums are accumulated left to right starting from the
    last value, exactly as the single cumsum in `sample_walk` adds them.
    """
    if n <= walk.n:
        return walk
    inc = walk_increments(walk.params, n - walk.n, walk.seed, walk.stream,
                          start=walk.n)
    tail = np.cumsum(np.concatenate([walk.values[-1:], inc]))[1:]
    values = np.concatenate([walk.values, tail])
    return WalkSample(walk.params, values, walk.seed, walk.stream)


def q_exact(params: ModelParams, seed: int, stream: int, k: int) -> tuple[float, float]:
    """(Q, q1) of one walk: e^{-S_0} + .. + e^{-S_{k-1}} + e^{-S_k} (1 + G_b / G_a)
    and the same sum without e^{-S_0}, term by term with `math.fsum`.

    G_a ~ Gamma(-2 alpha) and G_b ~ Gamma(theta + alpha) are drawn one at a
    time on the lanes LANE_TAIL and LANE_TAIL + 1 of the walk's stream.
    """
    s = sample_walk(params, k, seed, stream).values
    log_ga, log_gb = (float(log_gamma_draws(shape, lane_keys(seed, stream, _U64(lane))))
                      for shape, lane in ((-2.0 * params.alpha, LANE_TAIL),
                                          (params.theta + params.alpha, LANE_TAIL + 1)))
    terms = [math.exp(-v) for v in s[1:-1]]
    terms.append(math.exp(-s[-1]) * (1.0 + math.exp(log_gb - log_ga)))
    return math.fsum([1.0] + terms), math.fsum(terms)


# ---------------------------------------------------------------------------
# reference routines only the tests call


def path_code(path: list[tuple[int, int]]) -> int:
    """Bit-encode a path by its moves (up = i+1 = 1), first move = lowest bit."""
    code = 0
    for k in range(1, len(path)):
        if path[k][0] == path[k - 1][0] + 1:
            code |= 1 << (k - 1)
    return code


def increment_density(params: ModelParams, x):
    """Density of one walk increment, in log space; scalar or array.

    p(x) = e^{(theta-alpha) x} (1 + e^x)^{-2 theta} / B(theta-alpha, theta+alpha)
    """
    a, b = params.theta - params.alpha, params.theta + params.alpha
    v = np.asarray(x, dtype=float)
    logp = a * v - (a + b) * np.logaddexp(0.0, v) - betaln(a, b)
    with np.errstate(under="ignore"):
        out = np.exp(logp)
    if np.ndim(x) == 0:
        return float(out)
    return out


def diag_avoiding_exact(senv: SymmetrizedEnvironment, m: int, n: int) -> Fraction:
    """Paths (1,1)->(m,n), m != n, meeting the diagonal only at (1,1).

    Such a path commits to one side at its first step; by reflection
    symmetry of the weights we evaluate the below-diagonal side.
    """
    if m == n:
        raise ValueError("diagonal-avoiding value needs m != n")
    if n > m:
        m, n = n, m
    return _diag_avoiding_table(senv, m, n, EXACT).get((m, n), Fraction(0))


def diag_avoiding_log_table(senv: SymmetrizedEnvironment, imax: int, jmax: int) -> np.ndarray:
    """log of the diagonal-avoiding values on the strict lower triangle."""
    return _diag_avoiding_table(senv, imax, jmax, LOG)


def count_preimages(m: int, n: int, x: int) -> dict[tuple[Path, Path], int]:
    """Image multiplicity over the exhaustive domain."""
    counts: dict[tuple[Path, Path], int] = {}
    for p1, p2 in enumerate_disjoint_pairs(m, n, x):
        image = apply_umap(p1, p2)
        counts[image] = counts.get(image, 0) + 1
    return counts


def fraction_log(fr: Fraction) -> float:
    """log of a positive Fraction without overflowing through float."""
    if fr <= 0:
        raise ValueError("fraction_log requires a positive value")
    return math.log(fr.numerator) - math.log(fr.denominator)


def quadrant_fraction_table(senv: SymmetrizedEnvironment, start_col: int,
                            imax: int, jmax: int) -> dict[tuple[int, int], Fraction]:
    """Zq((1, start_col) -> (i, j)) for i <= imax, start_col <= j <= jmax and
    i + j <= 2n, by Z = W * (Z_up + Z_left) in Fractions of `weight_fraction`."""
    z: dict[tuple[int, int], Fraction] = {}
    for s in range(start_col + 1, 2 * senv.n + 1):
        for j in range(start_col, min(jmax, s - 1) + 1):
            i = s - j
            if i > imax:
                continue
            feed = (Fraction(1) if (i, j) == (1, start_col)
                    else z.get((i - 1, j), Fraction(0)) + z.get((i, j - 1), Fraction(0)))
            z[i, j] = senv.weight_fraction(i, j) * feed
    return z


def fraction_line_ensemble(senv: SymmetrizedEnvironment, kmax: int, mode: str,
                           order: int) -> list[np.ndarray]:
    """The curves of `multilayer.line_ensemble` by the Fraction route.

    Float mode takes `log_det_scaled` of the float LGV matrix first; a
    cancelled layer, and in exact mode every layer, is `exact_det` of the
    Fraction matrix and `fraction_log` of it, recomputed at each evaluation.
    """
    imax, jmax = 2 * order, order + 1
    logs = ([quadrant_log_table(senv, c, imax, jmax) for c in range(1, kmax + 1)]
            if mode == "float" else None)
    fracs = {c: quadrant_fraction_table(senv, c, imax, jmax) for c in range(1, kmax + 1)}

    def layer(k, m, ncol):
        if k == 0:
            return 0.0
        if mode == "float":
            try:
                return log_det_scaled(np.array(
                    lgv_matrix(lambda c, site: logs[c - 1][site], k, m, ncol)))
            except FloatingPointError:
                pass
        return fraction_log(exact_det(lgv_matrix(
            lambda c, site: fracs[c].get(site, Fraction(0)), k, m, ncol)))

    curves = []
    for k in range(1, kmax + 1):
        vals = np.empty(curve_length(order, k))
        for p in range(1, vals.size + 1):
            m, ncol = staircase_site(order, p)
            vals[p - 1] = math.log(2.0) + layer(k, m, ncol) - layer(k - 1, m, ncol)
        curves.append(vals)
    return curves
