"""The log-gamma walk, its increment law, and the random series Q.

The increment X = log Y2 - log Y1 has the classical closed form

    p(x) = Gamma(2 theta) / (Gamma(theta+alpha) Gamma(theta-alpha))
           * e^{(theta-alpha) x} / (1 + e^x)^{2 theta}

and CDF I_{sigma(x)}(theta-alpha, theta+alpha) with sigma the logistic
function, because e^X is a ratio of independent Gammas.  The library
evaluates both closed forms, so the oracles integrate instead: the density
is checked against `oracles.quadrature_density`, quadrature of the
convolution integral, and the CDF against quadrature of the library
density, which that check ties to the convolution.
"""
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

import oracles
from hslg_lab.special import constants
from hslg_lab.walk import (DoubleLimitTable, drift_risk, double_limit_check,
                           extend_walk, increment_cdf, increment_density,
                           limiting_endpoint_pmf, maximal_inequality_check,
                           q_partial, sample_walk, walk_increment_matrix,
                           walk_increments)


def quadrature_density(params, x):
    x = np.asarray(x, dtype=float)
    out = [oracles.quadrature_density(params.theta, params.alpha, float(v))
           for v in x.ravel()]
    return np.array(out).reshape(x.shape)


def integrated_cdf(params, x):
    """CDF by quadrature of the library density, independent of betainc."""
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        out = [scipy.integrate.quad(lambda v: increment_density(params, v),
                                    -np.inf, u)[0] for u in x.ravel()]
    return np.array(out).reshape(x.shape)


class TestWalkDraws:
    def test_starts_at_zero(self, params):
        assert sample_walk(params, 10).values[0] == 0.0

    def test_extension_is_bitwise_consistent(self, params):
        short = sample_walk(params, 12, seed=3, stream=5)
        long = sample_walk(params, 40, seed=3, stream=5)
        np.testing.assert_array_equal(extend_walk(short, 40).values,
                                      long.values)
        assert extend_walk(long, 12) is long

    def test_extension_from_every_length(self, params):
        long = sample_walk(params, 60, seed=2, stream=9).values
        for m in range(61):
            short = sample_walk(params, m, seed=2, stream=9)
            np.testing.assert_array_equal(extend_walk(short, 60).values, long)
            chained = extend_walk(extend_walk(short, (m + 60) // 2), 60)
            np.testing.assert_array_equal(chained.values, long)

    def test_matrix_rows_are_streams(self, params):
        mat = walk_increment_matrix(params, 4, 25, seed=1, stream=7)
        for s in range(4):
            np.testing.assert_array_equal(
                mat[s], walk_increments(params, 25, seed=1, stream=7 + s))

    def test_mean_drift(self, params):
        tau = constants(params).increment_drift
        mat = walk_increment_matrix(params, 10_000, 100, seed=2)
        ends = mat.sum(axis=1) / 100
        se = ends.std() / math.sqrt(ends.size)
        assert abs(ends.mean() - tau) < 3 * se + 1e-12

    def test_increment_variance(self, params):
        gamma = constants(params).walk_increment_var
        mat = walk_increment_matrix(params, 1000, 1000, seed=3)
        assert mat.var() == pytest.approx(gamma, rel=0.01)

    def test_increments_follow_the_law(self, params):
        x = walk_increment_matrix(params, 1000, 100, seed=4).ravel()
        res = scipy.stats.kstest(x, lambda v: increment_cdf(params, v))
        assert res.pvalue > 1e-3

    def test_negative_count_rejected(self, params):
        with pytest.raises(ValueError):
            walk_increments(params, -1)


class TestIncrementLaw:
    def test_density_matches_closed_form(self, params_grid):
        x = np.linspace(-30.0, 30.0, 401)
        for p in params_grid:
            got = increment_density(p, x)
            np.testing.assert_allclose(got, quadrature_density(p, x),
                                       atol=1e-8)

    def test_density_scalar_mode(self, params):
        v = increment_density(params, 0.0)
        assert isinstance(v, float)
        assert v == pytest.approx(float(quadrature_density(params, 0.0)),
                                  abs=1e-10)

    def test_normalization_and_mean(self, params_grid):
        for p in params_grid:
            total, _ = scipy.integrate.quad(
                lambda v: increment_density(p, v), -40, 40, limit=400)
            assert total == pytest.approx(1.0, abs=1e-6)
            mean, _ = scipy.integrate.quad(
                lambda v: v * increment_density(p, v), -40, 40, limit=400)
            assert mean == pytest.approx(constants(p).increment_drift,
                                         abs=1e-5)

    def test_cdf_matches_closed_form(self, params_grid):
        x = np.linspace(-20.0, 20.0, 301)
        for p in params_grid:
            np.testing.assert_allclose(increment_cdf(p, x),
                                       integrated_cdf(p, x), rtol=0,
                                       atol=1e-6)

    def test_cdf_scalar_and_limits(self, params):
        assert increment_cdf(params, -1e9) == 0.0
        assert increment_cdf(params, 1e9) == 1.0
        assert isinstance(increment_cdf(params, 0.5), float)


class TestQSeries:
    def test_q0_is_one_and_monotone(self, params):
        qs = q_partial(params, sample_walk(params, 0, seed=5), 1e-8)
        assert qs.partials[0] == 1.0
        assert qs.converged
        assert qs.tail_bound <= 1e-8
        assert np.all(np.diff(qs.partials) > 0)
        assert np.all(qs.partials >= 1.0)

    def test_certificate_covers_the_true_tail(self, params):
        for stream in range(30):
            walk = sample_walk(params, 0, seed=6, stream=stream)
            qs = q_partial(params, walk, 1e-10)
            assert qs.converged
            far = extend_walk(sample_walk(params, 0, seed=6, stream=stream),
                              qs.m + 3000)
            with np.errstate(under="ignore"):
                direct = np.exp(-far.values[qs.m + 1:]).sum()
            assert 0.0 <= direct <= qs.tail_bound

    def test_start_length_does_not_change_q(self, params):
        # q_partial extends the walk in chunks; the result must not depend
        # on how much of the walk was drawn beforehand
        window = 64
        for stream in range(40):
            qs = q_partial(params, sample_walk(params, 0, seed=17,
                                               stream=stream), 1e-10,
                           window=window)
            pre = extend_walk(sample_walk(params, 1, seed=17, stream=stream),
                              qs.m + window + 1)
            again = q_partial(params, pre, 1e-10, window=window)
            np.testing.assert_array_equal(again.partials, qs.partials)
            assert again.tail_bound == qs.tail_bound

    def test_risk_is_drift_risk_of_window(self, params):
        qs = q_partial(params, sample_walk(params, 0, seed=7), 1e-8,
                       window=32)
        assert qs.risk == drift_risk(params, 32)

    def test_cap_flags_without_truncating_silently(self, params):
        walk = sample_walk(params, 0, seed=8)
        qs = q_partial(params, walk, 1e-300, window=8, cap=50)
        assert not qs.converged
        assert qs.m == 50
        assert qs.tail_bound > 1e-300
        assert 0.0 < qs.risk <= 1.0

    def test_epsilon_guard(self, params):
        with pytest.raises(ValueError):
            q_partial(params, sample_walk(params, 0), 0.0)

    def test_q_times_r0_is_inverse_gamma(self, params):
        # e^{-S} series times an independent inverse-Gamma(theta - alpha)
        # front factor collapses to inverse-Gamma(-2 alpha)
        n = 4000
        q = np.array([q_partial(params, sample_walk(params, 0, seed=9,
                                                    stream=s), 1e-9).q
                      for s in range(n)])
        r0 = 1.0 / np.random.default_rng(10).gamma(
            params.theta - params.alpha, size=n)
        res = scipy.stats.kstest(q * r0,
                                 scipy.stats.invgamma(-2 * params.alpha).cdf)
        assert res.pvalue > 1e-3


class TestLimitingPmf:
    def test_entry_zero_is_reciprocal_q(self, params):
        out = limiting_endpoint_pmf(params, sample_walk(params, 0, seed=11),
                                    kmax=6)
        assert out.pmf[0] == 1.0 / out.qseries.q

    def test_truncation_accounting(self, params):
        walk = sample_walk(params, 0, seed=12)
        eps = 1e-9
        out = limiting_endpoint_pmf(params, walk, kmax=5, epsilon=eps)
        qs = out.qseries
        deficit = 1.0 - out.pmf.sum()
        assert deficit == pytest.approx(
            (qs.q - qs.partials[5]) / qs.q, abs=1e-15)
        full = limiting_endpoint_pmf(params, walk, kmax=qs.m, epsilon=eps)
        assert full.pmf.sum() == pytest.approx(1.0, abs=1e-12)
        beyond = limiting_endpoint_pmf(params, walk, kmax=qs.m + 50,
                                       epsilon=eps)
        assert beyond.pmf.sum() <= 1.0 + eps

    def test_kmax_guard(self, params):
        with pytest.raises(ValueError):
            limiting_endpoint_pmf(params, sample_walk(params, 0), -1)


class TestMaximalInequality:
    def test_huge_level_never_dips(self, params):
        rep = maximal_inequality_check(params, 1, 100, 1e6, samples=2000,
                                       seed=13)
        assert rep.empirical == 0.0
        assert rep.holds

    def test_bound_arithmetic(self, params):
        gamma = constants(params).walk_increment_var
        rep = maximal_inequality_check(params, 2, 64, 10.0, samples=10,
                                       seed=14)
        assert rep.steps == 16
        assert rep.bound == 16 * gamma / 100

    def test_moderate_level_within_bound(self, params):
        gamma = constants(params).walk_increment_var
        lam = 5.0 * math.sqrt(gamma * 10)
        rep = maximal_inequality_check(params, 1, 100, lam, samples=20_000,
                                       seed=15)
        assert rep.holds
        assert rep.empirical <= rep.bound

    def test_argument_guards(self, params):
        with pytest.raises(ValueError):
            maximal_inequality_check(params, 0, 10, 1.0, samples=10)
        with pytest.raises(ValueError):
            maximal_inequality_check(params, 1, 10, -1.0, samples=10)


class TestDoubleLimit:
    def test_ratio_table(self, params):
        tab = double_limit_check(params, [0, 5, 20], [50, 200],
                                 samples=4000, seed=16)
        assert isinstance(tab, DoubleLimitTable)
        assert np.all(tab.ratios[:, 0, :] == 1.0)
        # pathwise sub-sums of positive terms: nonincreasing in k
        assert np.all(np.diff(tab.ratios, axis=1) <= 0.0)
        assert np.all((tab.ratios >= 0.0) & (tab.ratios <= 1.0))
        # drift tau = 2 leaves almost no mass past r = 20
        assert tab.fraction_below(0.05)[2, 1] >= 0.95

    def test_grid_guards(self, params):
        with pytest.raises(ValueError):
            double_limit_check(params, [5, 2], [10], samples=10)
        with pytest.raises(ValueError):
            double_limit_check(params, [0, 20], [10], samples=10)
