"""Independent reference implementations used by the test suite.

Everything here is written from the definitions, not from the library
internals: partition functions are literal sums over enumerated paths,
determinants are signed sums over permutations, the walk increment
density is the convolution integral of its two log-gamma terms, the
Gibbs log-density is the literal sum of log edge weights, and the gamma
sampler gathers the pending lanes and evaluates every test on each of
them, round by round, so they share no code with the recurrences, the
elimination, the closed form, the single-site rule and the lane-dense
sampler under test.
"""
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from hslg_lab.environment import Environment
from hslg_lab.rng import uniforms


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
        w *= env.weight_fraction(i, j)
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


def gather_log_gamma_draws(shape, keys, q_base=0, max_rounds=128):
    """Marsaglia-Tsang log-gamma draws, one pending-lane gather per round.

    Slot q_base holds the boost uniform and round r reads slots
    q_base+1+3r .. q_base+3+3r, as in `rng.log_gamma_draws`; every lane
    takes the squeeze ``u3 < 1 - 0.0331 z**4`` and the full log test.
    """
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
        base = q0 + np.uint64(1 + 3 * r)
        u1 = uniforms(k, base)
        u2 = uniforms(k, base + np.uint64(1))
        u3 = uniforms(k, base + np.uint64(2))
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        v = (1.0 + c[pending] * z) ** 3
        ok = v > 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            squeeze = u3 < 1.0 - 0.0331 * z**4
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
