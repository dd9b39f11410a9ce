"""Single-site conditional laws of the line ensemble on the diamond lattice.

The diamond lattice of order n has rows i = 1..n with `curve_length(n, i)`
positions each; row i carries curve i of a line ensemble of order n, and
position j its value H(i, j).  Directed colored edges are placed by parity:
an odd position j sends an edge rightward to j + 1 (blue from odd rows, red
from even rows) and, for j >= 3, leftward to j - 1 (red from odd rows, blue
from even rows); an even position j in row i >= 2 sends a black pair down
to (i - 1, j - 1) and (i - 1, j + 1).  Every edge weight depends on the
difference x between the tail and head values,

    log W(x) = c * x - exp(x),

with c = theta - alpha on blue edges, theta + alpha on red edges, and 0 on
black edges.  The ensemble has the Gibbs property for these weights on
`gibbs_region(n)` (Barraquand-Corwin-Dimitrov, CMP 2023).  `site_rule` is
the one home of these placement rules: it reads the edges meeting one site
off them.

Fix every value but u = H(i, j).  The edges meeting (i, j) leave the
log-density a*u - b*exp(u) - c*exp(-u), where a sums the shapes of the
out-edges minus those of the in-edges, b sums exp(-H(head)) over the
out-edges and c sums exp(H(tail)) over the in-edges; exp(u) is thus a
generalized inverse Gaussian.  A positive joint density is fixed by its
single-site conditionals (Brook 1964), and when the ensemble has the Gibbs
property, F(H(i, j)) with F the conditional CDF is Uniform(0, 1) across
independent ensembles (Rosenblatt 1952), so the property is tested without
sampling.
"""

from __future__ import annotations

import numpy as np

from .multilayer import curve_length
from .special import ModelParams

Site = tuple[int, int]

_HALF_WIDTH = 40.0   # standardized half-width of the integration window
_NODES = 1001        # Simpson nodes on each side of the evaluation point
_SIMPSON = np.ones(_NODES)
_SIMPSON[1:-1:2], _SIMPSON[2:-1:2] = 4.0, 2.0
_UNIT = np.linspace(0.0, 1.0, _NODES)


def gibbs_region(n: int) -> frozenset[Site]:
    """Sites eligible as interior of a Gibbs domain: rows < n, j < row end."""
    return frozenset((i, j) for i in range(1, n)
                     for j in range(1, curve_length(n, i)))


def site_rule(params: ModelParams, n: int,
              site: Site) -> tuple[float, tuple[Site, ...], tuple[Site, ...]]:
    """(a, heads, tails) of the conditional law at `site` on the order-n lattice.

    a sums the shapes of the edges leaving `site` minus those entering it;
    `heads` are the far ends of the leaving edges (each adds exp(-H) to b)
    and `tails` the far ends of the entering ones (each adds exp(H) to c).
    Both list the edges in the order of their tails, row-major, and a is
    summed in that order; black edges have shape 0 and leave a unchanged.
    """
    i, j = site
    end = curve_length(n, i)
    right, left = params.theta - params.alpha, params.theta + params.alpha
    if i % 2 == 0:
        right, left = left, right
    a, heads, tails = 0.0, [], []
    if j % 2 == 1:      # sends right and left; row i + 1 sends it black pairs
        if j < end:
            a += right
            heads.append((i, j + 1))
        if j >= 3:
            a += left
            heads.append((i, j - 1))
        tails = [(i + 1, q) for q in (j - 1, j + 1)
                 if i < n and 2 <= q <= curve_length(n, i + 1)]
    else:               # receives from j - 1 and j + 1; sends a black pair down
        a -= right
        tails.append((i, j - 1))
        if i >= 2:
            heads = [(i - 1, j - 1), (i - 1, j + 1)]
        if j < end:
            a -= left
            tails.append((i, j + 1))
    return a, tuple(heads), tuple(tails)


def site_law(params: ModelParams, ensembles, site: Site):
    """(a, b, c, u) at `site` across ensembles of one order: u = H(site).

    b and c are arrays over the ensembles, so the conditional law of u given
    every other value of ensemble e is a*u - b[e]*exp(u) - c[e]*exp(-u).
    """
    n = ensembles[0].n
    if site not in gibbs_region(n):
        raise ValueError(f"site {site} outside the Gibbs region of order {n}")
    a, heads, tails = site_rule(params, n, site)
    rows = max(s[0] for s in heads + tails)
    if any(ens.n != n or ens.kmax < rows for ens in ensembles):
        raise ValueError(f"site {site} needs order-{n} ensembles with "
                         f"curves up to {rows}")

    def values(s: Site) -> np.ndarray:
        return np.array([ens.curves[s[0] - 1][s[1] - 1] for ens in ensembles])

    zero = np.zeros(len(ensembles))
    b = sum((np.exp(-values(s)) for s in heads), zero)
    c = sum((np.exp(values(s)) for s in tails), zero)
    return a, b, c, values(site)


def conditional_cdf(a, b, c, u):
    """P(U <= u) for the law of U with log-density a*U - b*exp(U) - c*exp(-U).

    Vectorized over broadcast arrays; the law is proper for c > 0, b >= 0
    and a < 0 where b = 0.  The mode is u* = log y* with y* the positive root
    of b*y^2 - a*y - c, written 2c / (sqrt(a^2 + 4bc) - a) when a < 0 so
    that it holds at b = 0.  The value is standardized by the curvature
    there, z = (u - u*) * k with k^2 = b*y* + c/y* >= |a|, and F is the
    ratio of Simpson's rule (1000 intervals) on [-40, z] to the sum of it
    and Simpson's rule on [z, 40].

    Error: in standardized units the log-density is concave with curvature
    at least exp(-|t|/k), so each side beyond |t| = 40 holds at most
    exp(k^2 - 40k) / (k (1 - exp(-40/k))) times the peak density: 1.2e-12
    at k^2 = 0.5, 1.1e-5 at k^2 = 0.1.  Against scipy.stats.geninvgauss
    and, at b = 0, scipy.stats.gamma on 4000 random laws (log b, log c ~
    N(0, 9), a ~ U(-3, 3)) the largest difference was 2.5e-8 where
    k^2 >= 0.3, and 2e-7 (b > 0) or 1e-4 (b = 0, the tail bound above)
    below it.  At the line ensemble's sites a is one of +-2 theta and
    theta -+ alpha, so k^2 >= theta + alpha.
    """
    a, b, c, u = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                       for v in (a, b, c, u)))
    root = np.sqrt(a * a + 4.0 * b * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        ystar = np.where(a < 0.0, 2.0 * c / (root - a), (a + root) / (2.0 * b))
    by, cy = b * ystar, c / ystar
    k = np.sqrt(by + cy)
    z = np.clip((u - np.log(ystar)) * k, -_HALF_WIDTH, _HALF_WIDTH)

    def mass(lo, hi):  # up to a factor common to both sides
        s = (lo[..., None] + (hi - lo)[..., None] * _UNIT) / k[..., None]
        with np.errstate(over="ignore", under="ignore"):
            f = np.exp(a[..., None] * s - by[..., None] * np.expm1(s)
                       - cy[..., None] * np.expm1(-s))
        return (hi - lo) * (f @ _SIMPSON)

    edge = np.full(z.shape, _HALF_WIDTH)
    left = mass(-edge, z)
    return left / (left + mass(z, edge))

