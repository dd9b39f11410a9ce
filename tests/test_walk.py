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

The batched Q certificate `limiting_endpoint_pmf` is checked bit for bit
against `oracles.q_partial`, which certifies one walk at a time.
"""
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

import oracles
from hslg_lab import walk
from hslg_lab.rng import LANE_CHAIN
from hslg_lab.special import ModelParams, constants
from hslg_lab.walk import (DoubleLimitTable, drift_risk, double_limit_check,
                           increment_cdf, increment_density,
                           limiting_endpoint_pmf, maximal_inequality_check,
                           walk_increment_matrix)
from oracles import extend_walk, q_partial, sample_walk, walk_increments


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

    def test_matrix_start_offsets_the_increments(self, params):
        for start in (0, 1, 17, 400):
            mat = walk_increment_matrix(params, 3, 9, seed=2, stream=5,
                                        start=start)
            for s in range(3):
                np.testing.assert_array_equal(
                    mat[s], walk_increments(params, 9, seed=2, stream=5 + s,
                                            start=start))

    def test_matrix_takes_a_stream_per_row(self, params):
        streams = np.array([9, 2, 40], dtype=np.uint64)
        mat = walk_increment_matrix(params, 3, 6, seed=1, stream=streams,
                                    start=3)
        for row, s in zip(mat, streams):
            np.testing.assert_array_equal(
                row, walk_increments(params, 6, seed=1, stream=int(s),
                                     start=3))
        with pytest.raises(ValueError):
            walk_increment_matrix(params, 2, 6, stream=streams)

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


HALF_ULP = 2.0**-53


def oracle_rows(params, seed, streams, epsilon, **kw):
    """(Q, M, tail bound, converged) of `oracles.q_partial`, one per stream."""
    out = []
    for s in streams:
        qs = q_partial(params, sample_walk(params, 0, seed=seed, stream=int(s)),
                       epsilon, **kw)
        out.append((qs.q, qs.m, qs.tail_bound, qs.converged))
    return out


def batched_rows(out):
    return [(float(q), int(m), float(t), bool(c)) for q, m, t, c in
            zip(out.q, out.m, out.tail_bound, out.converged)]


def assert_same(a, b):
    np.testing.assert_array_equal(a.pmf, b.pmf)
    assert batched_rows(a) == batched_rows(b)
    assert a.risk == b.risk


class TestQSeries:
    def test_q0_is_one_and_monotone(self, params):
        out = limiting_endpoint_pmf(params, 5, np.arange(20), 3, 1e-8)
        # Q = 1 + (positive terms), and every weight e^{-S_r} / Q is positive
        assert np.all(out.pmf[:, 0] == 1.0 / out.q)
        assert np.all(out.q > 1.0)
        assert np.all(out.pmf > 0.0)
        assert out.converged.all()
        assert np.all(out.tail_bound <= 1e-8)
        assert np.all(out.m >= 0)

    def test_certificate_covers_the_true_tail(self, params):
        out = limiting_endpoint_pmf(params, 6, np.arange(30), 0, 1e-10)
        assert out.converged.all()
        inc = walk_increment_matrix(params, 30, int(out.m.max()) + 3000, seed=6)
        s = np.cumsum(inc, axis=1)          # column k - 1 holds S_k
        with np.errstate(under="ignore"):
            for row, m in enumerate(out.m):
                direct = np.exp(-s[row, m:]).sum()
                assert 0.0 <= direct <= out.tail_bound[row]

    def test_start_length_does_not_change_q(self, params, monkeypatch):
        # the walks draw a first stretch, then extend; no number may depend
        # on how long the first stretch was
        streams = np.arange(40)
        ref = limiting_endpoint_pmf(params, 17, streams, 5, 1e-10)
        for extra in (1, 700):
            monkeypatch.setattr(walk, "_first_block",
                                lambda tau, eps, window, cap: window + extra)
            assert_same(limiting_endpoint_pmf(params, 17, streams, 5, 1e-10),
                        ref)

    def test_risk_is_drift_risk_of_window(self, params):
        out = limiting_endpoint_pmf(params, 7, [0], 1, 1e-8, window=32)
        assert out.risk == drift_risk(params, 32)

    def test_cap_flags_without_truncating_silently(self, params):
        out = limiting_endpoint_pmf(params, 8, [0, 1], 1, 1e-300, window=8,
                                    cap=50)
        assert not out.converged.any()
        assert np.all(out.m == 50)
        assert np.all(out.tail_bound > 1e-300)
        assert 0.0 < out.risk <= 1.0
        assert batched_rows(out) == oracle_rows(params, 8, [0, 1], 1e-300,
                                                window=8, cap=50)

    def test_epsilon_guard(self, params):
        with pytest.raises(ValueError):
            limiting_endpoint_pmf(params, 0, [0], 1, 0.0)
        with pytest.raises(ValueError):
            limiting_endpoint_pmf(params, 0, [0], 1, 1e-8, window=0)

    def test_q_times_r0_is_inverse_gamma(self, params):
        # e^{-S} series times an independent inverse-Gamma(theta - alpha)
        # front factor collapses to inverse-Gamma(-2 alpha)
        n = 4000
        q = limiting_endpoint_pmf(params, 9, np.arange(n), 0, 1e-9).q
        r0 = 1.0 / np.random.default_rng(10).gamma(
            params.theta - params.alpha, size=n)
        res = scipy.stats.kstest(q * r0,
                                 scipy.stats.invgamma(-2 * params.alpha).cdf)
        assert res.pvalue > 1e-3


class TestLimitingPmf:
    def test_entry_zero_is_reciprocal_q(self, params):
        out = limiting_endpoint_pmf(params, 11, np.arange(10), 6, 1e-10)
        assert out.pmf.shape == (10, 7)
        assert np.all(out.pmf[:, 0] == 1.0 / out.q)

    def test_truncation_accounting(self, params):
        eps = 1e-9
        out = limiting_endpoint_pmf(params, 12, [0], 5, eps)
        qs = q_partial(params, sample_walk(params, 0, seed=12), eps)
        assert out.q[0] == qs.q
        deficit = 1.0 - out.pmf[0].sum()
        assert deficit == pytest.approx(
            (qs.q - qs.partials[5]) / qs.q, abs=1e-15)
        m = int(out.m[0])
        full = limiting_endpoint_pmf(params, 12, [0], m, eps)
        assert full.pmf.sum() == pytest.approx(1.0, abs=1e-12)
        beyond = limiting_endpoint_pmf(params, 12, [0], m + 50, eps)
        assert beyond.q[0] == qs.q
        assert beyond.pmf.sum() <= 1.0 + eps

    def test_kmax_guard(self, params):
        with pytest.raises(ValueError):
            limiting_endpoint_pmf(params, 0, [0], -1, 1e-10)


class TestCertificateAgainstOracle:
    @pytest.mark.parametrize("alpha", [-0.5, -0.2, -0.02])
    def test_rows_match_q_partial_bitwise(self, alpha):
        params = ModelParams(1.0, alpha)
        streams = np.arange(40)
        out = limiting_endpoint_pmf(params, 21, streams, 5, HALF_ULP)
        assert batched_rows(out) == oracle_rows(params, 21, streams, HALF_ULP)
        assert out.converged.all()
        if alpha == -0.02:
            # a fixed 400-step walk would have cut these series short
            assert out.m.max() > 400
        for row, s in enumerate(streams):
            values = sample_walk(params, 5, seed=21, stream=int(s)).values
            np.testing.assert_array_equal(out.pmf[row],
                                          np.exp(-values) / out.q[row])

    def test_rows_flagged_at_the_cap_report_the_least_bound_seen(self):
        params = ModelParams(1.0, -0.02)
        streams = np.arange(40)
        out = limiting_endpoint_pmf(params, 22, streams, 5, HALF_ULP, cap=400)
        assert 0 < out.converged.sum() < streams.size
        assert np.all(out.m[~out.converged] == 400)
        assert batched_rows(out) == oracle_rows(params, 22, streams, HALF_ULP,
                                                cap=400)

    def test_pmf_columns_are_the_fixed_length_walk_sums(self, params):
        # S_1..S_5 are the first columns of the old (walks, 400) cumsum
        old = np.cumsum(walk_increment_matrix(params, 50, 400, seed=3,
                                              stream=100), axis=1)
        out = limiting_endpoint_pmf(params, 3, 100 + np.arange(50), 5,
                                    HALF_ULP)
        np.testing.assert_array_equal(out.pmf[:, 0], 1.0 / out.q)
        np.testing.assert_array_equal(out.pmf[:, 1:],
                                      np.exp(-old[:, :5]) / out.q[:, None])

    def test_blocking_does_not_change_rows(self, monkeypatch):
        params = ModelParams(1.0, -0.2)
        streams = np.arange(50, 90)
        whole = limiting_endpoint_pmf(params, 23, streams, 5, HALF_ULP)
        calls = [limiting_endpoint_pmf(params, 23, part, 5, HALF_ULP)
                 for part in (streams[:1], streams[1:17], streams[17:])]
        for name in ("pmf", "q", "m", "tail_bound", "converged"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(c, name) for c in calls]),
                getattr(whole, name))
        for lanes in (1, 700):              # one walk per block; a few walks
            monkeypatch.setattr(walk, "_ROW_LANES", lanes)
            assert_same(limiting_endpoint_pmf(params, 23, streams, 5, HALF_ULP),
                        whole)

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
