"""Diagonal-transfer rewiring of non-intersecting path pairs.

`apply_umap` takes a vertex-disjoint pair of upright quadrant paths

    pi1: (1, x+1) -> (m, n),      pi2: (1, x) -> (m, n-1),     2 <= n <= m,

and rewires them into a pair ending at (n-1, m) and (n, m) such that

  (a) the first output never touches the diagonal, and the second output's
      diagonal points are exactly the union of the inputs' diagonal points;
  (b) the multiset of visited sites is preserved up to reflection across
      the diagonal, so any reflection-symmetric site-weight product is
      exactly preserved;
  (c) the map has at most 2^d preimages, d the number of diagonal points
      of the output pair (hence at most 2^n).

The rewiring walks the diagonal points of both paths in order.  Transfer
anchors are the pi2 diagonal points adjacent (in that order) to a run of
pi1 diagonal points; between consecutive anchors at most one of the two
paths touches the diagonal.  Runs of pi1 diagonal points are handed over
to pi2 by reflecting the pi2 stretch and swapping the enclosed portions
between the first and the last crossing; after the final anchor the tails
are swapped and reflected so the endpoints land at (n-1, m) and (n, m).

`apply_umap` raises `UMapError` on input that breaks the contract above.
`property_violations` checks its outputs, (a)-(c), endpoints and
uprightness, over an exhaustive domain and reports each breach as a trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .environment import SymmetrizedEnvironment
from .multilayer import enumerate_quadrant_paths, multilayer_lgv, vq_exact, vq_tilde_exact

Site = tuple[int, int]
Path = tuple[Site, ...]


class UMapError(RuntimeError):
    pass


def _level(site: Site) -> int:
    return site[0] + site[1]


def _reflect(seg) -> Path:
    return tuple((j, i) for i, j in seg)


def _diag_points(path: Path) -> list[Site]:
    return [s for s in path if s[0] == s[1]]


def _segment(path: Path, a: Site, b: Site) -> Path:
    ia, ib = path.index(a), path.index(b)
    if ia > ib:
        raise UMapError("segment endpoints out of order")
    return path[ia: ib + 1]


def _upright(path: Path) -> bool:
    return all(v in ((u[0] + 1, u[1]), (u[0], u[1] + 1))
               for u, v in itertools.pairwise(path))


def _case_transfer(seg1: Path, seg2: Path, interior: list[Site]) -> tuple[Path, Path]:
    """Hand the interior pi1 diagonal run over to pi2 (middle segments)."""
    pi3 = _reflect(seg2)
    common = set(seg1) & set(pi3)
    if not common:
        raise UMapError("expected crossing of pi1 with the reflected pi2 stretch")
    p1 = min(common, key=_level)
    p2 = max(common, key=_level)
    q_first, q_last = interior[0], interior[-1]
    if p1 == p2:
        raise UMapError("degenerate single crossing in a transfer segment")
    if not (_level(p1) < _level(q_first) and _level(p2) > _level(q_last)):
        raise UMapError("crossings do not bracket the diagonal run")
    i3a, i3b = pi3.index(p1), pi3.index(p2)
    s1a, s1b = seg1.index(p1), seg1.index(p2)
    new1 = seg1[:s1a] + pi3[i3a: i3b + 1] + seg1[s1b + 1:]
    p1r, p2r = _reflect([p1])[0], _reflect([p2])[0]
    i2a, i2b = seg2.index(p1r), seg2.index(p2r)
    new2 = seg2[:i2a] + _reflect(seg1[s1a: s1b + 1]) + seg2[i2b + 1:]
    return new1, new2


def _case_tail(seg1: Path, seg2: Path) -> tuple[Path, Path]:
    """Swap-and-reflect the tails after the last anchor."""
    pi3 = _reflect(seg2)
    common = set(seg1) & set(pi3)
    if not common:
        raise UMapError("expected crossing of pi1 with the reflected pi2 tail")
    p = min(common, key=_level)
    if p[0] == p[1]:
        raise UMapError("tail crossing landed on the diagonal")
    s1 = seg1.index(p)
    i3 = pi3.index(p)
    new1 = seg1[:s1] + pi3[i3:]
    i2 = seg2.index(_reflect([p])[0])
    new2 = seg2[:i2] + _reflect(seg1[s1:])
    return new1, new2


def apply_umap(pi1, pi2) -> tuple[Path, Path]:
    pi1, pi2 = tuple(pi1), tuple(pi2)
    if not (_upright(pi1) and _upright(pi2)):
        raise UMapError("inputs must be upright paths")
    m, n = pi1[-1]
    if pi2[-1] != (m, n - 1):
        raise UMapError("pair endpoints must be (m, n) and (m, n-1)")
    if not (2 <= n <= m):
        raise UMapError("target must satisfy 2 <= n <= m")
    x = pi2[0][1]
    if pi1[0] != (1, x + 1) or pi2[0] != (1, x) or x < 1:
        raise UMapError("pair must start at (1, x+1) and (1, x)")
    if set(pi1) & set(pi2):
        raise UMapError("input paths must be vertex-disjoint")

    d1 = _diag_points(pi1)      # in path order, which is diagonal order
    d2 = set(_diag_points(pi2))
    dall = sorted(set(d1) | d2)
    anchors: list[Site] = []
    for t, site in enumerate(dall):
        if site in d2:
            before = t > 0 and dall[t - 1] not in d2
            after = t + 1 < len(dall) and dall[t + 1] not in d2
            if before or after:
                anchors.append(site)
    if not anchors:
        raise UMapError("no transfer anchors; inputs violate the crossing structure")

    b_points = []
    col_first: dict[int, Site] = {}
    for s in pi1:
        col_first.setdefault(s[0], s)
    for a in anchors:
        b_points.append(col_first[a[0]])

    anchors.append((m, n - 1))
    b_points.append((m, n))

    out1 = list(pi1[: pi1.index(b_points[0])])
    out2 = list(pi2[: pi2.index(anchors[0])])
    r = len(anchors) - 1
    for j in range(r):
        seg1 = _segment(pi1, b_points[j], b_points[j + 1])
        seg2 = _segment(pi2, anchors[j], anchors[j + 1])
        if j < r - 1:
            lo, hi = anchors[j][0], anchors[j + 1][0]
            interior = [s for s in d1 if lo < s[0] < hi]
            if interior:
                seg1, seg2 = _case_transfer(seg1, seg2, interior)
        else:
            interior = [s for s in d1 if s[0] > anchors[j][0]]
            if not interior:
                raise UMapError("final stretch of pi1 never returns to the diagonal")
            seg1, seg2 = _case_tail(seg1, seg2)
        out1.extend(seg1 if not out1 or out1[-1] != seg1[0] else seg1[1:])
        out2.extend(seg2 if not out2 or out2[-1] != seg2[0] else seg2[1:])
    return tuple(out1), tuple(out2)


def enumerate_disjoint_pairs(m: int, n: int, x: int) -> list[tuple[Path, Path]]:
    """Full input domain for the rewiring at the given corner and offset."""
    p1s = enumerate_quadrant_paths((1, x + 1), (m, n))
    p2s = enumerate_quadrant_paths((1, x), (m, n - 1))
    return [(p1, p2) for p1 in p1s for p2 in p2s if not set(p1) & set(p2)]


def _canonical_sites(*paths: Path) -> list[Site]:
    return sorted((min(i, j), max(i, j)) for p in paths for i, j in p)


def _fmt_path(path: Path) -> str:
    return "".join(f"({i},{j})" for i, j in path)


def property_violations(m: int, n: int, x: int) -> list[str]:
    """Exhaustive contract sweep at one corner; entries are site-list traces.

    Checks, for every vertex-disjoint input pair: upright outputs, start
    and end sites, output disjointness, diagonal transfer (first output
    clean, second output carrying exactly the union of input diagonal
    points), and reflection-invariant site-multiset preservation; then
    preimage counts against both 2^{diagonal points} and 2^n.
    """
    violations: list[str] = []
    images: dict[tuple[Path, Path], int] = {}
    for p1, p2 in enumerate_disjoint_pairs(m, n, x):
        q1, q2 = apply_umap(p1, p2)
        problems = []
        if not (_upright(q1) and _upright(q2)):
            problems.append("outputs not upright")
        if (q1[0], q1[-1], q2[0], q2[-1]) != ((1, x + 1), (n - 1, m), (1, x), (n, m)):
            problems.append("endpoints")
        if set(q1) & set(q2):
            problems.append("outputs intersect")
        if _diag_points(q1):
            problems.append("diagonal on first output")
        want = set(_diag_points(p1)) | set(_diag_points(p2))
        if set(_diag_points(q2)) != want:
            problems.append("diagonal set not preserved")
        if _canonical_sites(p1, p2) != _canonical_sites(q1, q2):
            problems.append("site multiset not preserved")
        if problems:
            violations.append(
                f"{'; '.join(problems)}: {_fmt_path(p1)} + {_fmt_path(p2)}"
                f" -> {_fmt_path(q1)} + {_fmt_path(q2)}")
        key = (q1, q2)
        images[key] = images.get(key, 0) + 1
    for (q1, q2), cnt in images.items():
        d = len(_diag_points(q1)) + len(_diag_points(q2))
        if cnt > 2 ** d or cnt > 2 ** n:
            violations.append(
                f"preimage count {cnt} > bound min(2^{d}, 2^{n}):"
                f" {_fmt_path(q1)} + {_fmt_path(q2)}")
    return violations


@dataclass(frozen=True)
class SbdResult:
    lhs: Fraction
    rhs: Fraction
    holds: bool


def check_sbd_inequality(senv: SymmetrizedEnvironment, m: int, n: int, k: int) -> SbdResult:
    """Exact-rational check of the 2k-layer anti-diagonal bound.

    lhs: the 2k-layer value at (m, n).  rhs: 2^n times the product over
    i = 1..k of V_{m+n+2-2i} * ~V_{m+n+1-2i}, divided by the first-row
    weight prefixes that the elongation of the rewired tuple picks up.
    """
    if not (1 <= k and 2 * k <= n and n <= m):
        raise ValueError("need 1 <= k <= n/2 and n <= m")
    lhs = multilayer_lgv(senv, m, n, 2 * k)
    prefix = Fraction(1)
    for c in range(2, 2 * k + 1):
        for j in range(1, c):
            prefix *= senv.weight_fraction(1, j)
    rhs = Fraction(2) ** n / prefix
    for i in range(1, k + 1):
        rhs *= vq_exact(senv, m + n + 2 - 2 * i)
        rhs *= vq_tilde_exact(senv, m + n + 1 - 2 * i)
    return SbdResult(lhs=lhs, rhs=rhs, holds=lhs <= rhs)
