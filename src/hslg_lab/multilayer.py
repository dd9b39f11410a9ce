"""Multilayer symmetrized partition functions and the line ensemble.

Work happens on the symmetrized quadrant view (diagonal weights halved,
reflection otherwise).  The r-layer quantity sums the weight product over
r-tuples of pairwise vertex-disjoint upright quadrant paths

    (1, r) -> (m, n),  (1, r-1) -> (m, n-1),  ...,  (1, 1) -> (m, n-r+1)

Two independent routes are kept separate on purpose: exhaustive tuple
enumeration (small instances, exact arithmetic) and the determinant of
single-path values (Lindstrom-Gessel-Viennot).  The line ensemble stacks
log-ratios of consecutive layer counts along the staircase
(N + floor(p/2), N - ceil(p/2) + 1).  Its float determinants fall back to
exact ones when they cancel.  An exact layer is the fraction-free Bareiss
elimination of the integer cells of the exact quadrant sweeps, O(k^3) per
k x k matrix and taken once per layer and site, so exact mode is not
limited to small sizes.

Every single-path table here (quadrant values from a start column, and the
diagonal-avoiding values strictly below the diagonal) is `polymer.collect`
of `polymer.sweep_region` over that region, and `lgv_matrix` assembles
every determinant from the quadrant tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .environment import SymmetrizedEnvironment, stream_log_weights
from .polymer import (EXACT, LOG, NEG_INF, collect, diagonal_profiles, exact_values,
                      sweep, sweep_region)
from .special import ModelParams

# Exhaustive enumeration guard: r paths of m+n-r sites each.
MAX_BRUTE_CELLS = 48
MAX_BRUTE_TUPLES = 2_000_000

CANCELLATION_RATIO = 1e-8


class InstanceTooLarge(ValueError):
    pass


def _dyadic_log(value, bits: int) -> float:
    """log(value / 2^bits) of a positive int or Fraction, without overflowing
    through float.

    The quotient is reduced by stripping common factors of two, not by a
    gcd, and its log is log(numerator) - log(denominator) of the reduced
    form: the same float whichever way the quotient was reached.
    """
    num, den = value.numerator, value.denominator
    strip = min((num & -num).bit_length() - 1, bits)
    return math.log(num >> strip) - math.log(den << (bits - strip))


def enumerate_quadrant_paths(start, end):
    """All upright paths start -> end in the quadrant, as site tuples."""
    si, sj = start
    ei, ej = end
    if ei < si or ej < sj:
        return []
    out = []

    def walk(i, j, acc):
        if (i, j) == (ei, ej):
            out.append(tuple(acc))
            return
        if i < ei:
            acc.append((i + 1, j))
            walk(i + 1, j, acc)
            acc.pop()
        if j < ej:
            acc.append((i, j + 1))
            walk(i, j + 1, acc)
            acc.pop()

    walk(si, sj, [(si, sj)])
    return out


def check_brute_size(m: int, n: int, r: int) -> None:
    """Raise InstanceTooLarge unless `multilayer_brute` at (m, n) with
    1 <= r <= n layers stays within the enumeration caps.

    Every path family has C(m + n - r - 1, m - 1) paths, so the tuples are
    counted without listing a path.
    """
    if r * (m + n - r) > MAX_BRUTE_CELLS:
        raise InstanceTooLarge(f"{r} paths of {m + n - r} cells exceed the "
                               f"enumeration cap of {MAX_BRUTE_CELLS} cells")
    tuples = math.comb(m + n - r - 1, m - 1) ** r
    if tuples > MAX_BRUTE_TUPLES:
        raise InstanceTooLarge(f"{tuples} path tuples exceed the enumeration "
                               f"cap of {MAX_BRUTE_TUPLES}")


def multilayer_brute(senv: SymmetrizedEnvironment, m: int, n: int, r: int) -> Fraction:
    """Exact exhaustive sum over disjoint path tuples (verification oracle)."""
    if r == 0:
        return Fraction(1)
    if r < 0 or n - r + 1 < 1:
        raise ValueError("need 1 <= r <= n")
    check_brute_size(m, n, r)
    families = [enumerate_quadrant_paths((1, r - a), (m, n - a)) for a in range(r)]
    weight = {(i, j): senv.weight_fraction(i, j)
              for i in range(1, m + 1) for j in range(1, n + 1)}
    total = Fraction(0)
    for combo in itertools.product(*families):
        sites = [site for path in combo for site in path]
        if len(set(sites)) == len(sites):
            total += math.prod(weight[site] for site in sites)
    return total


def _quadrant_table(senv, start_col, imax, jmax, ring):
    def bounds(s):
        return max(start_col, s - imax), min(jmax, s - 1)
    return collect(sweep_region(senv, ring, start_col + 1, bounds), ring, imax, jmax)


def quadrant_log_table(senv: SymmetrizedEnvironment, start_col: int,
                       imax: int, jmax: int) -> np.ndarray:
    """log Zq((1, start_col) -> (i, j)) on [1..imax] x [1..jmax] (float path).

    Index [i, j]; unreachable sites and sites past the wedge boundary
    i + j = 2n stay at -inf.
    """
    return _quadrant_table(senv, start_col, imax, jmax, LOG)


def quadrant_exact_table(senv: SymmetrizedEnvironment, start_col: int,
                         imax: int, jmax: int) -> dict[tuple[int, int], Fraction]:
    """Fraction values of `quadrant_log_table`, keyed (i, j), reachable sites only."""
    return exact_values(_quadrant_table(senv, start_col, imax, jmax, EXACT),
                        senv, start_col + 1)


def exact_det(matrix: list[list[int | Fraction]]) -> Fraction:
    """Exact determinant of integer or Fraction entries by fraction-free
    Bareiss elimination, O(k^3).

    Each row is scaled to integers by the lcm of its denominators (1 for
    integers, powers of two for dyadic weights).  Every elimination step
    then divides exactly by the previous pivot, so entries stay integers; a
    zero pivot swaps in a later row and flips the sign.
    """
    rows, scale = [], 1
    for row in matrix:
        d = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    k, sign, prev = len(rows), 1, 1
    for c in range(k):
        if rows[c][c] == 0:
            swap = next((r for r in range(c + 1, k) if rows[r][c] != 0), None)
            if swap is None:
                return Fraction(0)
            rows[c], rows[swap] = rows[swap], rows[c]
            sign = -sign
        pivot, top = rows[c][c], rows[c]
        for row in rows[c + 1:]:
            lead = row[c]
            for j in range(c + 1, k):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return Fraction(sign * prev, scale)


def log_det_scaled(log_matrix: np.ndarray) -> float:
    """log of det(exp(log_matrix)) via row scaling.

    The determinants assembled here are sums over disjoint path tuples and
    must be positive.  A non-positive float determinant, or one below
    `CANCELLATION_RATIO` times its Hadamard bound, raises FloatingPointError:
    its log would be unreliable.
    """
    r = log_matrix.shape[0]
    rowmax = np.max(log_matrix, axis=1)
    if np.any(rowmax == NEG_INF):
        return NEG_INF
    m = np.exp(log_matrix - rowmax[:, None])
    det = float(np.linalg.det(m))
    hadamard = float(np.prod(np.linalg.norm(m, axis=1)))
    if hadamard > 0 and abs(det) < CANCELLATION_RATIO * hadamard:
        raise FloatingPointError("determinant suffered >1e8 cancellation")
    if det <= 0.0:
        raise FloatingPointError("non-positive determinant in float mode")
    return float(np.sum(rowmax) + np.log(det))


def lgv_matrix(entry, r: int, m: int, n: int) -> list[list]:
    """The r x r LGV matrix of the tuple ending at (m, n): row a, column b
    holds Zq((1, r - a) -> (m, n - b)), read as entry(r - a, (m, n - b))."""
    return [[entry(r - a, (m, n - b)) for b in range(r)] for a in range(r)]


def multilayer_lgv(senv: SymmetrizedEnvironment, m: int, n: int, r: int) -> Fraction:
    """Exact r-layer value via the determinant of single-path quadrant values."""
    if r == 0:
        return Fraction(1)
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    tables = {c: quadrant_exact_table(senv, c, m, n) for c in range(1, r + 1)}
    return exact_det(lgv_matrix(lambda c, site: tables[c].get(site, Fraction(0)),
                                r, m, n))


def _diag_avoiding_table(senv, imax, jmax, ring):
    """Diagonal-avoiding values on the strict lower triangle i > j.

    The source is (1,1) with its halved symmetrized weight; it is no table
    cell, and the diagonal cells are outside the region.
    """
    def bounds(s):
        return (1, 1) if s == 2 else (max(1, s - imax), min(jmax, (s - 1) // 2))
    cells = itertools.islice(sweep_region(senv, ring, 2, bounds), 1, None)
    table = collect(cells, ring, imax, jmax)
    return table if ring is LOG else exact_values(table, senv, 2)


def _line_sum(table: dict, q: int) -> Fraction:
    """Sum of an exact table's values at its sites on the line i + j = q."""
    return sum((v for (i, j), v in table.items() if i + j == q), Fraction(0))


def vq_exact(senv: SymmetrizedEnvironment, q: int) -> Fraction:
    """V_q: symmetrized values summed over wedge sites of the line i+j = q."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return _line_sum(quadrant_exact_table(senv, 1, q - 1, q // 2), q)


def vq_tilde_exact(senv: SymmetrizedEnvironment, q: int) -> Fraction:
    """Diagonal-avoiding analog of V_q over strict-wedge sites of i+j = q."""
    if q < 3:
        raise ValueError("q must be >= 3")
    return _line_sum(_diag_avoiding_table(senv, q - 1, (q - 1) // 2, EXACT), q)


def curve_length(n: int, k: int) -> int:
    """Positions of curve k of an order-n line ensemble: 2n - 2k + 2."""
    return 2 * n - 2 * k + 2


@dataclass
class LineEnsemble:
    """Curves H(k, p), k = 1..kmax, p = 1..curve_length(n, k), 0-indexed in p."""

    n: int
    kmax: int
    curves: list[np.ndarray]

    def h(self, k: int, p: int) -> float:
        if not 1 <= k <= self.kmax:
            raise KeyError(f"curve {k} not built")
        if not 1 <= p <= curve_length(self.n, k):
            raise KeyError(f"position {p} outside curve {k}")
        return float(self.curves[k - 1][p - 1])


def staircase_site(n: int, p: int) -> tuple[int, int]:
    """Lattice point read by ensemble position p: (n + p//2, n - (p+1)//2 + 1)."""
    return n + p // 2, n - (p + 1) // 2 + 1


def line_ensemble(senv: SymmetrizedEnvironment, kmax: int, mode: str = "float",
                  order: int | None = None) -> LineEnsemble:
    """Build curves 1..kmax: H(k, p) = log 2 + log(layer_k / layer_{k-1}).

    Even staircase positions read lattice points on the line i + j = 2*order
    + 1, one past the order's own anti-diagonal, so the ensemble of a given
    order needs an environment one size larger; by default the order is the
    environment size minus one.

    Float mode assembles k x k determinants from per-start quadrant tables
    and redoes a layer in exact arithmetic when its determinant cancels;
    exact mode takes every layer exactly.  Exact layers read the integer
    cells of the EXACT quadrant sweeps, built once per start column on
    first use.  In the k x k matrix at staircase site (m, n) the cells'
    row and column powers of two cancel to 2^(scale * k(m + n - k)) det Z,
    so an exact layer is one integer elimination (`exact_det`), taken once
    per (k, m, n) however many curves read it.
    """
    n = order if order is not None else senv.n - 1
    if n < 1:
        raise ValueError("ensemble order must be >= 1 (environment size >= 2)")
    if 2 * n + 1 > 2 * senv.n:
        raise ValueError("environment too small for this ensemble order")
    if not 1 <= kmax <= n:
        raise ValueError("kmax must lie in [1, order]")
    imax, jmax = 2 * n, n + 1
    if mode == "float":
        tables = [quadrant_log_table(senv, c, imax, jmax) for c in range(1, kmax + 1)]
    elif mode != "exact":
        raise ValueError("mode must be 'float' or 'exact'")
    scale = senv.dyadic_scale
    exact: dict[int, dict] = {}     # integer tables by start column, built on first use
    layers: dict[tuple[int, int, int], float] = {}    # exact layer logs by (k, m, n)

    def exact_entry(c: int, site) -> int:
        if c not in exact:
            exact[c] = _quadrant_table(senv, c, imax, jmax, EXACT)
        return exact[c].get(site, 0)

    def layer_log(k: int, m: int, ncol: int) -> float:
        if k == 0:
            return 0.0
        if mode == "float":
            logm = np.array(lgv_matrix(lambda c, site: tables[c - 1][site], k, m, ncol))
            # deep layers cancel catastrophically in float; weights are binary
            # rationals, so the exact route is always available as a fallback
            try:
                return log_det_scaled(logm)
            except FloatingPointError:
                pass
        if (k, m, ncol) not in layers:
            det = exact_det(lgv_matrix(exact_entry, k, m, ncol))
            # staircase layers always hold disjoint tuples, so the sum is positive
            if det <= 0:
                raise FloatingPointError("non-positive determinant in exact mode")
            layers[k, m, ncol] = _dyadic_log(det, scale * k * (m + ncol - k))
        return layers[k, m, ncol]

    curves = []
    for k in range(1, kmax + 1):
        vals = np.empty(curve_length(n, k))
        for p in range(1, vals.size + 1):
            m, ncol = staircase_site(n, p)
            vals[p - 1] = math.log(2.0) + layer_log(k, m, ncol) - layer_log(k - 1, m, ncol)
        curves.append(vals)
    return LineEnsemble(n=n, kmax=kmax, curves=curves)


def batch_diag_avoiding_profiles(params: ModelParams, n: int, flavor: str,
                                 seed: int, streams) -> np.ndarray:
    """log of diagonal-avoiding values at (n+p, n-p), p = 1..n-1, batched.

    Streams `sweep` below the diagonal the same way the polymer batch
    does; the (1,1) weight enters once, halved, as the source.  The result
    is the (streams, n - 1) profile of size n, diagonal 2n of the sweep
    (`diagonal_profiles`).  No driver calls it; the benchmark times it.
    """
    if n < 2:
        raise ValueError("diagonal-avoiding profile needs n >= 2")

    def diagonals():
        for s, _, logw in stream_log_weights(params, n, flavor, seed, streams):
            yield 1, (logw - math.log(2.0) if s == 2 else logw[:, : (s - 1) // 2])

    return diagonal_profiles(sweep(diagonals(), LOG), n, None, 1)
