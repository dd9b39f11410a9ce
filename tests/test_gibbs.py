"""Diamond-lattice Gibbs densities, the slice sampler, and the curve-ordering
check."""
import math

import numpy as np
import pytest
import scipy.stats

from hslg_lab.gibbs import (BLACK, BLUE, RED, ColoredEdge, DiamondDomain,
                            colored_edges, diamond_domain, edge_shape,
                            effective_sample_size, gibbs_log_density,
                            gibbs_region, lattice_sites, mcmc_sample_gibbs,
                            ordering_check, row_length)
from hslg_lab.environment import generate_environment, symmetrize
from hslg_lab.multilayer import line_ensemble

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
    def test_row_lengths(self):
        assert [row_length(4, i) for i in range(1, 5)] == [8, 6, 4, 2]
        assert len(lattice_sites(4)) == 8 + 6 + 4 + 2

    def test_k4_edge_set_matches_transcription(self):
        got = {(e.tail, e.head, e.color) for e in colored_edges(4)}
        assert got == K4_EDGES

    def test_gibbs_region_excludes_last_row_and_row_ends(self):
        region = gibbs_region(3)
        assert (3, 1) not in region and (1, 6) not in region
        assert region == {(i, j) for i in (1, 2)
                          for j in range(1, row_length(3, i))}

    def test_edge_shapes(self, params):
        assert edge_shape(params, BLUE) == params.theta - params.alpha
        assert edge_shape(params, RED) == params.theta + params.alpha
        assert edge_shape(params, BLACK) == 0.0
        with pytest.raises(ValueError):
            edge_shape(params, "green")


class TestDomain:
    def test_boundary_and_edges(self):
        dom = diamond_domain(2, [(1, 1), (1, 2)])
        assert dom.interior == ((1, 1), (1, 2))
        assert set(dom.boundary) == {(1, 3), (2, 2)}
        # the (2,2) -> (1,3) edge joins two boundary sites and is dropped
        assert len(dom.edges) == 3

    def test_membership_errors(self):
        with pytest.raises(ValueError):
            diamond_domain(2, [])
        with pytest.raises(ValueError):
            diamond_domain(2, [(3, 1)])
        with pytest.raises(ValueError):
            diamond_domain(2, [(2, 1)])  # outside the Gibbs region
        diamond_domain(2, [(2, 1)], require_gibbs_region=False)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            diamond_domain(3, [(1, 1), (1, 4)])


class TestLogDensity:
    def test_single_blue_edge_at_zero(self, params):
        dom = DiamondDomain(2, ((1, 1),), ((1, 2),),
                            (ColoredEdge((1, 1), (1, 2), BLUE),))
        val = gibbs_log_density(params, dom, {(1, 1): 0.7}, {(1, 2): 0.7})
        assert val == -1.0

    def test_black_edge_vanishes_at_large_negative_gap(self, params):
        dom = DiamondDomain(2, ((1, 1),), ((2, 2),),
                            (ColoredEdge((2, 2), (1, 1), BLACK),))
        val = gibbs_log_density(params, dom, {(1, 1): 20.0}, {(2, 2): -20.0})
        assert abs(val) < 1e-17

    def test_translation_invariance_exact(self, params):
        # values on a coarse dyadic grid so the shifted sums are exact and
        # the increments come out bit-identical
        dom = diamond_domain(3, [(1, 1), (1, 2), (1, 3), (2, 2)])
        rng = np.random.default_rng(0)
        grid = 2.0 ** -20

        def snap(v):
            return float(np.round(v / grid) * grid)

        inner = {s: snap(v) for s, v in
                 zip(dom.interior, rng.normal(size=len(dom.interior)))}
        outer = {s: snap(v) for s, v in
                 zip(dom.boundary, rng.normal(size=len(dom.boundary)))}
        base = gibbs_log_density(params, dom, inner, outer)
        for c in (1.0, -3.25, 0.125):
            shifted = gibbs_log_density(
                params, dom,
                {s: v + c for s, v in inner.items()},
                {s: v + c for s, v in outer.items()})
            assert shifted == base

    def test_unvalued_vertex_rejected(self, params):
        dom = diamond_domain(2, [(1, 1)])
        with pytest.raises(KeyError):
            gibbs_log_density(params, dom, {(1, 1): 0.0}, {})


class TestSliceSampler:
    def test_single_edge_conditional_is_exact_law(self, params):
        # one interior site fed by a single blue edge from boundary value y:
        # y - u is distributed as the log of a Gamma(theta - alpha) variable
        y = 0.4
        dom = diamond_domain(2, [(1, 4)], require_gibbs_region=False)
        assert [e for e in dom.edges] == [ColoredEdge((1, 3), (1, 4), BLUE)]
        out = mcmc_sample_gibbs(params, dom, {(1, 3): y}, samples=500,
                                chains=40, burn_in=50, thin=2, seed=3)
        draws = y - out.flat[:, 0]
        res = scipy.stats.kstest(draws, scipy.stats.loggamma(
            params.theta - params.alpha).cdf)
        assert res.pvalue > 1e-3

    def test_boundary_shift_moves_means(self, params):
        dom = diamond_domain(2, [(1, 1), (1, 2)])
        kw = dict(samples=400, chains=10, burn_in=200, thin=5, seed=4)
        lo = mcmc_sample_gibbs(params, dom, {(1, 3): 0.0, (2, 2): 0.0}, **kw)
        hi = mcmc_sample_gibbs(params, dom, {(1, 3): 1.0, (2, 2): 1.0}, **kw)
        for t in range(2):
            shift = hi.flat[:, t].mean() - lo.flat[:, t].mean()
            se = math.hypot(scipy.stats.sem(hi.flat[:, t]),
                            scipy.stats.sem(lo.flat[:, t]))
            # MCMC autocorrelation inflates the naive error; allow 8x
            assert shift == pytest.approx(1.0, abs=8 * se + 0.02)

    def test_ordered_boundaries_give_ordered_quantiles(self, params):
        dom = diamond_domain(2, [(1, 1), (1, 2)])
        kw = dict(samples=400, chains=10, burn_in=200, thin=5, seed=5)
        lo = mcmc_sample_gibbs(params, dom, {(1, 3): -0.5, (2, 2): -0.5}, **kw)
        hi = mcmc_sample_gibbs(params, dom, {(1, 3): 0.5, (2, 2): 1.5}, **kw)
        g = np.random.default_rng(6)
        for t in range(2):
            a, bvals = lo.flat[:, t], hi.flat[:, t]
            for q in (0.1, 0.25, 0.5, 0.75, 0.9):
                diffs = [np.quantile(g.choice(bvals, bvals.size), q)
                         - np.quantile(g.choice(a, a.size), q)
                         for _ in range(300)]
                assert np.quantile(diffs, 0.995) > 0.0

    def test_infinite_boundary_only_on_black(self, params):
        # (2,2) feeds (1,1) through a black edge; value -inf makes that
        # edge weight one, the absent-edge convention
        dom = diamond_domain(2, [(1, 1), (1, 2)])
        vals = {(1, 3): 0.0, (2, 2): -math.inf}
        out = mcmc_sample_gibbs(params, dom, vals, samples=20, chains=2,
                                burn_in=20, thin=1, seed=7, ess_floor=1.0)
        assert np.isfinite(out.flat).all()
        with pytest.raises(ValueError):
            mcmc_sample_gibbs(params, dom, {(1, 3): math.inf, (2, 2): 0.0},
                              samples=5, chains=1, burn_in=5, thin=1)

    def test_missing_boundary_value(self, params):
        dom = diamond_domain(2, [(1, 1), (1, 2)])
        with pytest.raises(ValueError):
            mcmc_sample_gibbs(params, dom, {(1, 3): 0.0}, samples=5,
                              chains=1, burn_in=5, thin=1)

    def test_schedule_validation(self, params):
        dom = diamond_domain(2, [(1, 1)])
        with pytest.raises(ValueError):
            mcmc_sample_gibbs(params, dom, {}, samples=0)

    def test_low_ess_warns(self, params):
        dom = diamond_domain(2, [(1, 1), (1, 2)])
        vals = {(1, 3): 0.0, (2, 2): 0.0}
        with pytest.warns(RuntimeWarning, match="effective sample size"):
            mcmc_sample_gibbs(params, dom, vals, samples=10, chains=1,
                              burn_in=5, thin=1, seed=2)

    def test_deterministic_given_seed(self, params):
        dom = diamond_domain(2, [(1, 1), (1, 2)])
        vals = {(1, 3): 0.0, (2, 2): 0.0}
        kw = dict(samples=30, chains=3, burn_in=10, thin=2, seed=11, stream=4,
                  ess_floor=1.0)
        a = mcmc_sample_gibbs(params, dom, vals, **kw)
        b = mcmc_sample_gibbs(params, dom, vals, **kw)
        np.testing.assert_array_equal(a.samples, b.samples)


class TestDetailedBalance:
    def test_two_site_histogram_matches_density(self, params):
        dom = diamond_domain(2, [(1, 1), (1, 2)])
        boundary = {(1, 3): 0.3, (2, 2): -0.4}
        out = mcmc_sample_gibbs(params, dom, boundary, samples=10000,
                                chains=400, burn_in=300, thin=1, seed=8)
        pts = out.flat
        lo = pts.mean(axis=0) - 4.5 * pts.std(axis=0)
        hi = pts.mean(axis=0) + 4.5 * pts.std(axis=0)
        bins = 100
        hist, ex, ey = np.histogram2d(pts[:, 0], pts[:, 1], bins=bins,
                                      range=[[lo[0], hi[0]], [lo[1], hi[1]]])
        hist /= hist.sum()
        # midpoint-rule normalization of the exact unnormalized density
        cx = (ex[:-1] + ex[1:]) / 2
        cy = (ey[:-1] + ey[1:]) / 2
        gx, gy = np.meshgrid(cx, cy, indexing="ij")
        logd = np.empty((bins, bins))
        for i in range(bins):
            for j in range(bins):
                logd[i, j] = gibbs_log_density(
                    params, dom, {(1, 1): gx[i, j], (1, 2): gy[i, j]},
                    boundary)
        with np.errstate(under="ignore"):
            dens = np.exp(logd - logd.max())
            dens /= dens.sum()
            l1 = np.abs(hist - dens).sum()
        assert l1 <= 0.02


class TestEss:
    def test_iid_trace(self):
        x = np.random.default_rng(13).normal(size=4000)
        ess = effective_sample_size(x)
        assert ess > 2000

    def test_sticky_trace(self):
        g = np.random.default_rng(14)
        x = np.empty(4000)
        x[0] = 0.0
        for t in range(1, 4000):
            x[t] = 0.98 * x[t - 1] + g.normal() * 0.02
        assert effective_sample_size(x) < 400

    def test_constant_trace(self):
        assert effective_sample_size(np.ones(100)) == 100.0


class TestOrdering:
    def _ensembles(self, params, n, envs, seed=0):
        out = []
        for e in range(envs):
            env = generate_environment(params, n + 1, seed=seed, stream=e)
            out.append(line_ensemble(symmetrize(env), kmax=2, order=n))
        return out

    def test_infinite_slack_never_violated(self, params):
        report = ordering_check(self._ensembles(params, 8, 10), k=1,
                                slack=math.inf)
        assert report.violations.sum() == 0
        assert report.trials.sum() > 0

    def test_log_squared_slack_rates_small(self, params):
        report = ordering_check(self._ensembles(params, 16, 120), k=1)
        assert np.all(report.rates <= 0.10)

    def test_needs_next_curve(self, params):
        env = generate_environment(params, 5, seed=0)
        ens = line_ensemble(symmetrize(env), kmax=1)
        with pytest.raises(ValueError):
            ordering_check(ens, k=1)
