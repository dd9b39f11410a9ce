"""The diamond lattice, the single-site conditional laws of the line
ensemble, and `verify gibbs`.

The oracles for the site rule are `oracles.colored_edges`, the lattice's
edge list built from the three placement rules and checked here against a
hand transcription at order 4, the scan of that list and
`oracles.gibbs_log_density`, the literal sum of log edge weights; the
oracles for the conditional CDF are scipy's generalized inverse Gaussian
and gamma laws.
"""
import math

import numpy as np
import pytest
import scipy.stats

from hslg_lab import cli, gibbs
from hslg_lab.gibbs import conditional_cdf, gibbs_region, site_law, site_rule
from hslg_lab.experiments import line_ensembles
from hslg_lab.multilayer import LineEnsemble, curve_length
from oracles import colored_edges, gibbs_log_density, lattice_sites, site_rule_by_scan

BLUE, RED, BLACK = "blue", "red", "black"

# every edge of the order-4 lattice, transcribed by hand from the three
# placement rules (rightward from odd positions, leftward from odd
# positions >= 3 with swapped color, black pair downward from even
# positions of rows >= 2)
K4_EDGES = {
    ((1, 1), (1, 2), BLUE), ((1, 3), (1, 4), BLUE), ((1, 5), (1, 6), BLUE),
    ((1, 7), (1, 8), BLUE),
    ((1, 3), (1, 2), RED), ((1, 5), (1, 4), RED), ((1, 7), (1, 6), RED),
    ((2, 1), (2, 2), RED), ((2, 3), (2, 4), RED), ((2, 5), (2, 6), RED),
    ((2, 3), (2, 2), BLUE), ((2, 5), (2, 4), BLUE),
    ((3, 1), (3, 2), BLUE), ((3, 3), (3, 4), BLUE),
    ((3, 3), (3, 2), RED),
    ((4, 1), (4, 2), RED),
    ((2, 2), (1, 1), BLACK), ((2, 2), (1, 3), BLACK),
    ((2, 4), (1, 3), BLACK), ((2, 4), (1, 5), BLACK),
    ((2, 6), (1, 5), BLACK), ((2, 6), (1, 7), BLACK),
    ((3, 2), (2, 1), BLACK), ((3, 2), (2, 3), BLACK),
    ((3, 4), (2, 3), BLACK), ((3, 4), (2, 5), BLACK),
    ((4, 2), (3, 1), BLACK), ((4, 2), (3, 3), BLACK),
}


class TestLattice:
    def test_curve_lengths(self, params):
        assert [curve_length(4, i) for i in range(1, 5)] == [8, 6, 4, 2]
        # every curve of a built ensemble, of every order and depth
        for n, kmax in ((2, 2), (4, 3), (6, 6)):
            for ens in line_ensembles(params, n, kmax, 5, 0, 2):
                assert [c.size for c in ens.curves] == \
                    [curve_length(n, k) for k in range(1, kmax + 1)]

    def test_k4_edge_set_matches_transcription(self):
        edges = colored_edges(4)
        assert len(edges) == len(K4_EDGES) and set(edges) == K4_EDGES

    def test_gibbs_region_excludes_last_row_and_row_ends(self):
        region = gibbs_region(3)
        assert (3, 1) not in region and (1, 6) not in region
        assert region == {(i, j) for i in (1, 2)
                          for j in range(1, curve_length(3, i))}


class TestLogDensity:
    """The oracle itself, on edges whose weights are known by hand."""

    def test_single_blue_edge_at_zero(self, params):
        edges = [((1, 1), (1, 2), BLUE)]
        val = gibbs_log_density(params, edges, {(1, 1): 0.7, (1, 2): 0.7})
        assert val == -1.0

    def test_black_edge_vanishes_at_large_negative_gap(self, params):
        edges = [((2, 2), (1, 1), BLACK)]
        val = gibbs_log_density(params, edges, {(1, 1): 20.0, (2, 2): -20.0})
        assert abs(val) < 1e-17

    def test_translation_invariance_exact(self, params):
        # values on a coarse dyadic grid so the shifted sums are exact and
        # the increments come out bit-identical
        rng = np.random.default_rng(0)
        grid = 2.0 ** -20
        sites = lattice_sites(3)
        values = {s: float(np.round(v / grid) * grid)
                  for s, v in zip(sites, rng.normal(size=len(sites)))}
        edges = colored_edges(3)
        base = gibbs_log_density(params, edges, values)
        for c in (1.0, -3.25, 0.125):
            shifted = gibbs_log_density(
                params, edges, {s: v + c for s, v in values.items()})
            assert shifted == base

    def test_unvalued_vertex_rejected(self, params):
        with pytest.raises(KeyError):
            gibbs_log_density(params, [((1, 1), (1, 2), BLUE)], {(1, 1): 0.0})


def random_ensembles(n: int, count: int, seed: int) -> list[LineEnsemble]:
    """Ensembles whose curves are arbitrary values on every lattice row."""
    rng = np.random.default_rng(seed)
    return [LineEnsemble(n, n, [rng.normal(scale=2.0, size=curve_length(n, i))
                                for i in range(1, n + 1)])
            for _ in range(count)]


class TestSiteRule:
    def test_reads_the_edges_of_each_site(self, params_grid):
        # bit for bit (repr keeps the sign of zero): the rule sums the
        # nonzero terms of a in the scan's order
        for n in range(1, 11):
            edges = colored_edges(n)
            for p in params_grid:
                for site in lattice_sites(n):
                    assert repr(site_rule(p, n, site)) == \
                        repr(site_rule_by_scan(p, edges, site))

    @pytest.mark.parametrize("n", [4, 6])
    def test_matches_single_site_differences_of_the_density(self, n,
                                                            params_grid):
        # order 4 uses the hand-transcribed edges, order 6 the built ones
        edges = K4_EDGES if n == 4 else colored_edges(n)
        ensembles = random_ensembles(n, 3, seed=n)
        shifts = np.array([-2.5, -0.3, 0.4, 1.7])
        for p in params_grid:
            for site in sorted(gibbs_region(n)):
                a, b, c, u = site_law(p, ensembles, site)
                for e, ens in enumerate(ensembles):
                    values = {(i, j): ens.h(i, j) for i, j in lattice_sites(n)}
                    base = gibbs_log_density(p, edges, values)
                    for x in u[e] + shifts:
                        values[site] = x
                        got = gibbs_log_density(p, edges, values) - base
                        want = (a * (x - u[e]) - b[e] * (math.exp(x) - math.exp(u[e]))
                                - c[e] * (math.exp(-x) - math.exp(-u[e])))
                        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_alpha_enters_only_at_row_starts(self, params_grid):
        n = 6
        for p in params_grid:
            for i, j in gibbs_region(n):
                a, heads, tails = site_rule(p, n, (i, j))
                if j == 1:
                    want = p.theta - p.alpha if i % 2 == 1 else p.theta + p.alpha
                else:
                    want = 2 * p.theta if j % 2 == 1 else -2 * p.theta
                assert a == pytest.approx(want, abs=1e-12)
                if i == 1 and j % 2 == 0:
                    assert heads == ()    # b = 0: no black edge leaves row 1

    def test_refuses_sites_it_cannot_condition(self, params):
        ensembles = random_ensembles(4, 2, seed=0)
        with pytest.raises(ValueError):
            site_law(params, ensembles, (4, 1))      # last row
        with pytest.raises(ValueError):
            site_law(params, ensembles, (1, 8))      # row end
        short = [LineEnsemble(4, 2, ens.curves[:2]) for ens in ensembles]
        site_law(params, short, (2, 2))              # reads rows 1 and 2
        with pytest.raises(ValueError):
            site_law(params, short, (2, 1))          # reads row 3


class TestConditionalCdf:
    N = 2000

    def test_matches_generalized_inverse_gaussian(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-3.0, 3.0, self.N)
        b = np.exp(rng.normal(0.0, 3.0, self.N))
        c = np.exp(rng.normal(0.0, 3.0, self.N))
        # exp(U) ~ GIG: density y^(a-1) exp(-b y - c/y)
        law = scipy.stats.geninvgauss(a, 2.0 * np.sqrt(b * c),
                                      scale=np.sqrt(c / b))
        with np.errstate(all="ignore"):
            y = law.rvs(random_state=rng)
            want = law.cdf(y)
        err = np.abs(conditional_cdf(a, b, c, np.log(y)) - want)
        steep = np.abs(a) >= 0.3             # curvature at the mode >= 0.3
        assert err[steep].max() < 1e-7
        assert err.max() < 1e-6

    def test_no_row_below_is_a_gamma_law(self):
        # b = 0: exp(-U) ~ Gamma(-a, rate c)
        rng = np.random.default_rng(2)
        shape = rng.uniform(0.3, 4.0, self.N)
        c = np.exp(rng.normal(0.0, 3.0, self.N))
        v = scipy.stats.gamma.ppf(rng.uniform(size=self.N), shape, scale=1 / c)
        got = conditional_cdf(-shape, 0.0, c, -np.log(v))
        want = scipy.stats.gamma.sf(v, shape, scale=1 / c)
        assert np.abs(got - want).max() < 1e-7

    def test_far_tails_and_broadcasting(self):
        u = np.array([-200.0, -30.0, 30.0, 200.0])
        got = conditional_cdf(2.0, 1.0, 1.0, u)
        assert got.shape == (4,)
        assert got[0] == 0.0 and got[-1] == 1.0
        assert 0.0 <= got[1] < 1e-12 and 1 - 1e-12 < got[2] <= 1.0


class TestVerifyGibbs:
    def test_swapped_colors_fail_at_a_row_start(self, monkeypatch, capsys):
        # a row start sends only its rightward edge; swapping the colors
        # there swaps theta - alpha and theta + alpha in its a
        def swapped(p, n, site):
            a, heads, tails = site_rule(p, n, site)
            if site[1] == 1:
                a = p.theta + p.alpha if a == p.theta - p.alpha else p.theta - p.alpha
            return a, heads, tails

        monkeypatch.setattr(gibbs, "site_rule", swapped)
        assert cli.main(["verify", "gibbs", "--envs", "100"]) == 1
        assert "FAIL: conditional PIT of H(1, 1)" in capsys.readouterr().out

