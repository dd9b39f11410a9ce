"""The log-gamma walk, its increment law, and the random series Q.

The increment X = log Y2 - log Y1 has the classical closed form

    p(x) = Gamma(2 theta) / (Gamma(theta+alpha) Gamma(theta-alpha))
           * e^{(theta-alpha) x} / (1 + e^x)^{2 theta}

and CDF I_{sigma(x)}(theta-alpha, theta+alpha) with sigma the logistic
function, because e^X is a ratio of independent Gammas.  The library
evaluates the CDF closed form and `oracles.increment_density` the density
one, so the checks integrate instead: the density is checked against
`oracles.quadrature_density`, quadrature of the convolution integral, and
the library CDF against quadrature of the density, which that check ties
to the convolution.

The series Q of `limiting_endpoint_pmf` is exact: the walk's first K terms
plus e^{-S_K} times an independent copy of Q drawn as 1 + G_b / G_a.  It is
checked against `oracles.q_exact`, which sums one walk at a time; against
direct sums of long walks, where the rest of the series is below an ulp;
and against its closed-form law, the logit of Beta(theta + alpha, -2 alpha)
for log q1 = logit((Q - 1) / Q).
"""
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from scipy.special import expit, logsumexp, polygamma

import oracles
from hslg_lab import walk
from hslg_lab.special import ModelParams, constants
from hslg_lab.walk import increment_cdf, limiting_endpoint_pmf, walk_increment_matrix
from oracles import extend_walk, increment_density, q_exact, sample_walk, walk_increments


def quadrature_density(params, x):
    x = np.asarray(x, dtype=float)
    out = [oracles.quadrature_density(params.theta, params.alpha, float(v))
           for v in x.ravel()]
    return np.array(out).reshape(x.shape)


def integrated_cdf(params, x):
    """CDF by quadrature of the library density, independent of the library CDF."""
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

    def test_matrix_takes_a_stream_per_row(self, params):
        streams = np.array([9, 2, 40], dtype=np.uint64)
        mat = walk_increment_matrix(params, 3, 6, seed=1, stream=streams)
        for row, s in zip(mat, streams):
            np.testing.assert_array_equal(
                row, walk_increments(params, 6, seed=1, stream=int(s)))
        with pytest.raises(ValueError):
            walk_increment_matrix(params, 2, 6, stream=streams)

    def test_mean_drift(self, params):
        tau = constants(params).increment_drift
        mat = walk_increment_matrix(params, 10_000, 100, seed=2)
        ends = mat.sum(axis=1) / 100
        se = ends.std() / math.sqrt(ends.size)
        assert abs(ends.mean() - tau) < 3 * se + 1e-12

    def test_increment_variance(self, params):
        gamma = polygamma(1, params.shape_diag) + polygamma(1, params.shape_boundary)
        mat = walk_increment_matrix(params, 1000, 1000, seed=3)
        assert mat.var() == pytest.approx(gamma, rel=0.01)

    def test_increments_follow_the_law(self, params):
        x = walk_increment_matrix(params, 1000, 100, seed=4).ravel()
        res = scipy.stats.kstest(x, lambda v: increment_cdf(params, v))
        assert res.pvalue > 1e-3

    def test_negative_count_rejected(self, params):
        with pytest.raises(ValueError):
            walk_increments(params, -1)
        with pytest.raises(ValueError):
            walk_increment_matrix(params, 2, -1)


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


def logit_beta_cdf(a, b, v):
    """CDF of logit(B) for B ~ Beta(a, b), from scipy.stats; the upper half
    through the survival function of Beta(b, a), which keeps its digits."""
    v = np.asarray(v, dtype=float)
    with np.errstate(under="ignore"):
        return np.where(v < 0.0, scipy.stats.beta(a, b).cdf(expit(v)),
                        scipy.stats.beta(b, a).sf(expit(-v)))


def direct_log_q1(params, seed, streams, steps):
    """log(e^{-S_1} + .. + e^{-S_steps}) of the walks `streams`, summed
    directly."""
    s = np.cumsum(walk_increment_matrix(params, len(streams), steps, seed,
                                        np.asarray(streams, dtype=np.uint64)), axis=1)
    with np.errstate(under="ignore"):
        return logsumexp(-s, axis=1)


class TestQSeries:
    def test_q0_is_one_and_monotone(self, params):
        out = limiting_endpoint_pmf(params, 5, np.arange(20), 3)
        # Q = 1 + q1 with q1 > 0, and every weight e^{-S_r} / Q is positive
        np.testing.assert_allclose(np.exp(out.log_q), 1.0 + np.exp(out.log_q1),
                                   rtol=1e-15)
        np.testing.assert_array_equal(out.s[:, 0], 0.0)
        assert np.all(out.log_q > 0.0)
        assert np.all(out.pmf > 0.0)

    @pytest.mark.parametrize("theta, alpha", [(1.0, -0.5), (0.7, -0.2), (1.0, -0.9)])
    def test_exact_tail_matches_long_direct_sums(self, theta, alpha):
        # at drift tau >= 1.2 the terms past 400 steps lie below e^{-300}
        # on every walk, so the direct sum is Q to the last bit; with K = 1
        # the drawn tail carries almost all of the exact route's q1
        params = ModelParams(theta, alpha)
        assert constants(params).increment_drift > 1.2
        n = 4000
        exact = limiting_endpoint_pmf(params, 0, np.arange(n), 1).log_q1
        direct = direct_log_q1(params, 0, n + np.arange(n), 400)
        assert scipy.stats.ks_2samp(exact, direct).pvalue > 1e-3

    def test_start_length_does_not_change_q(self, params):
        # the walk's first K steps are summed and the rest of the series is
        # drawn; the law of Q may not depend on where the draw takes over.
        # At K = 1 the tail draw carries most of q1, at K = 60 the walk does
        n = 4000
        short = limiting_endpoint_pmf(params, 3, np.arange(n), 1).log_q1
        long = limiting_endpoint_pmf(params, 3, n + np.arange(n), 60).log_q1
        assert scipy.stats.ks_2samp(short, long).pvalue > 1e-3

    @pytest.mark.parametrize("theta, alpha", [(1.0, -0.5), (1.0, -0.3), (0.7, -0.2),
                                              (1.0, -0.9), (1.0, -0.99), (1.0, -0.05)])
    def test_q_minus_one_over_q_is_beta(self, theta, alpha):
        # 1/Q ~ Beta(-2 alpha, theta + alpha) by beta-gamma algebra, so
        # (Q - 1)/Q = q1/Q ~ Beta(theta + alpha, -2 alpha), and its logit is
        # log q1.  At alpha = -0.05 about 2.5% of that law lies within an
        # ulp of 1 and -0.99 puts q1 near e^{-1000}; log q1 keeps both apart.
        # K = 1 tests the tail draw alone, K = 5 the walk's head with it
        for kmax in (0, 5):
            out = limiting_endpoint_pmf(ModelParams(theta, alpha), 0, np.arange(20_000),
                                        kmax)
            assert np.isfinite(out.log_q1).all()
            res = scipy.stats.kstest(out.log_q1, lambda v: logit_beta_cdf(
                theta + alpha, -2.0 * alpha, v))
            assert res.pvalue > 1e-3

    def test_q_times_r0_is_inverse_gamma(self, params):
        # e^{-S} series times an independent inverse-Gamma(theta - alpha)
        # front factor collapses to inverse-Gamma(-2 alpha)
        n = 4000
        q = np.exp(limiting_endpoint_pmf(params, 9, np.arange(n), 0).log_q)
        r0 = 1.0 / np.random.default_rng(10).gamma(
            params.theta - params.alpha, size=n)
        res = scipy.stats.kstest(q * r0,
                                 scipy.stats.invgamma(-2 * params.alpha).cdf)
        assert res.pvalue > 1e-3


class TestLimitingPmf:
    def test_entry_zero_is_reciprocal_q(self, params):
        out = limiting_endpoint_pmf(params, 11, np.arange(10), 6)
        assert out.pmf.shape == (10, 7)
        np.testing.assert_array_equal(out.pmf[:, 0], np.exp(-out.log_q))

    def test_truncation_accounting(self, params):
        # the weights 0..K leave out e^{-S_K} G_b / G_a of Q, the tail less
        # its first term
        out = limiting_endpoint_pmf(params, 12, [0], 5)
        s = sample_walk(params, 5, seed=12).values
        q, _ = q_exact(params, 12, 0, 5)
        rest = q - math.fsum(np.exp(-s))
        assert 1.0 - out.pmf[0].sum() == pytest.approx(rest / q, abs=1e-15)

    def test_kmax_zero_draws_one_step(self, params):
        # q1 needs S_1 on every walk, so K = max(kmax, 1)
        out = limiting_endpoint_pmf(params, 0, [0, 1], 0)
        assert out.s.shape == (2, 2)

    def test_kmax_guard(self, params):
        with pytest.raises(ValueError):
            limiting_endpoint_pmf(params, 0, [0], -1)


class TestExactQAgainstOracle:
    @pytest.mark.parametrize("alpha", [-0.5, -0.2, -0.02])
    def test_rows_match_the_one_walk_oracle(self, alpha):
        params = ModelParams(1.0, alpha)
        streams = np.arange(40)
        out = limiting_endpoint_pmf(params, 21, streams, 5)
        want = np.array([q_exact(params, 21, int(s), 5) for s in streams])
        np.testing.assert_allclose(np.exp(out.log_q), want[:, 0], rtol=1e-13)
        np.testing.assert_allclose(np.exp(out.log_q1), want[:, 1], rtol=1e-13)
        for row, s in enumerate(streams):
            np.testing.assert_array_equal(out.s[row],
                                          sample_walk(params, 5, seed=21, stream=int(s)).values)

    def test_pmf_columns_are_the_walk_sums(self, params):
        # S_1..S_5 are the first columns of a (walks, 400) cumsum
        old = np.cumsum(walk_increment_matrix(params, 50, 400, seed=3,
                                              stream=100), axis=1)
        out = limiting_endpoint_pmf(params, 3, 100 + np.arange(50), 5)
        np.testing.assert_array_equal(out.s[:, 1:], old[:, :5])
        np.testing.assert_array_equal(out.pmf[:, 1:],
                                      np.exp(-old[:, :5] - out.log_q[:, None]))

    @pytest.mark.parametrize("kmax", [5, 40])
    def test_splitting_and_blocking_do_not_change_rows(self, kmax, monkeypatch):
        # a row sum of 5 terms runs left to right, one of 40 through
        # numpy's unrolled accumulators
        params = ModelParams(1.0, -0.2)
        streams = np.arange(50, 90)
        whole = limiting_endpoint_pmf(params, 23, streams, kmax)
        calls = [limiting_endpoint_pmf(params, 23, part, kmax)
                 for part in (streams[:1], streams[1:17], streams[17:])]
        for lanes in (1, 7 * (kmax + 1), 700):      # one walk per block; a few walks
            monkeypatch.setattr(walk, "_ROW_LANES", lanes)
            calls.append(limiting_endpoint_pmf(params, 23, streams, kmax))
        for name in ("s", "log_q", "log_q1"):
            ref = getattr(whole, name)
            np.testing.assert_array_equal(np.concatenate([getattr(c, name)
                                                          for c in calls[:3]]), ref)
            for c in calls[3:]:
                np.testing.assert_array_equal(getattr(c, name), ref)


def dips(params, steps, lam, samples, seed):
    """Per walk: does min_{k <= steps} S_k reach -lam (streams 0..samples-1)?"""
    inc = walk_increment_matrix(params, samples, steps, seed, 0)
    return np.cumsum(inc, axis=1).min(axis=1) <= -lam


class TestMaximalInequality:
    """P(min_{k <= n} S_k <= -lam) <= n gamma / lam^2."""

    def test_huge_level_never_dips(self, params):
        assert not dips(params, 10, 1e6, 2000, seed=13).any()

    def test_moderate_level_within_bound(self, params):
        gamma = polygamma(1, params.shape_diag) + polygamma(1, params.shape_boundary)
        lam = 5.0 * math.sqrt(gamma * 10)
        p_hat = dips(params, 10, lam, 20_000, seed=15).mean()
        assert p_hat <= 10 * gamma / lam**2


class TestDoubleLimit:
    def test_ratio_table(self, params):
        # tail ratios sum_{r=k}^{n} e^{-S_r} / sum_{r=0}^{n} e^{-S_r}
        k_grid, n_grid = [0, 5, 20], [50, 200]
        inc = walk_increment_matrix(params, 4000, max(n_grid), 16, 0)
        s = np.concatenate([np.zeros((4000, 1)), np.cumsum(inc, axis=1)], axis=1)
        with np.errstate(under="ignore"):
            csum = np.cumsum(np.exp(-s), axis=1)
        ratios = np.stack([np.stack([
            (csum[:, n] - (csum[:, k - 1] if k else 0.0)) / csum[:, n]
            for n in n_grid], axis=1) for k in k_grid], axis=1)
        assert np.all(ratios[:, 0, :] == 1.0)
        # pathwise sub-sums of positive terms: nonincreasing in k
        assert np.all(np.diff(ratios, axis=1) <= 0.0)
        assert np.all((ratios >= 0.0) & (ratios <= 1.0))
        # drift tau = 2 leaves almost no mass past r = 20
        assert (ratios[:, 2, 1] < 0.05).mean() >= 0.95
