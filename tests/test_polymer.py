"""Partition recurrences, endpoint law, and quenched path sampling."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats

import oracles
from hslg_lab.environment import (generate_dyadic_environment,
                                  generate_environment)
from hslg_lab.polymer import (LOG, batch_final_profiles, endpoint_pmf,
                              exact_partition_table, logsumexp, partition_table,
                              sample_path_codes, sweep)
from hslg_lab.special import ModelParams
from oracles import path_code


class TestLogPlus:
    """LOG's plus, hi + log1p(exp(lo - hi)), against np.logaddexp."""

    plus = staticmethod(LOG[0])

    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    @pytest.mark.parametrize("offset", [-700.0, 0.0, 700.0])
    def test_agrees_with_logaddexp(self, scale, offset):
        gen = np.random.default_rng([int(scale * 1e3), int(offset) + 700])
        a, b = gen.normal(offset, scale, (2, 200_000))
        with np.errstate(under="ignore"):   # exp of far-apart terms
            got, want = self.plus(a, b), np.logaddexp(a, b)
        ulp = np.spacing(np.maximum.reduce([np.ones_like(a), abs(a), abs(b), abs(want)]))
        assert np.all(np.abs(got - want) <= 2 * ulp)

    def test_inf_terms_and_ties(self):
        x = np.array([-745.5, -3.25, 0.0, 1e-300, 2.5, 800.0])
        ninf = np.full_like(x, -np.inf)
        np.testing.assert_array_equal(self.plus(ninf, x), x)
        np.testing.assert_array_equal(self.plus(x, ninf), x)
        with np.errstate(invalid="ignore"):     # -inf - -inf
            np.testing.assert_array_equal(self.plus(ninf, ninf), ninf)
        np.testing.assert_array_equal(self.plus(x, x), x + math.log(2.0))

    def test_sweep_leaves_cells_with_no_neighbour_at_minus_inf(self):
        # the second diagonal starts two columns past the first, so its
        # cell at column 3 has only its left neighbour, at column 2, and
        # its cell at column 4 has none; conftest raises on every float error
        w1 = np.array([[0.5, 1.25], [-2.0, 3.0]])
        w2 = np.array([[0.25, -1.5], [4.0, 0.75]])
        _, (lo, z) = list(sweep([(1, w1), (3, w2)], LOG))
        assert lo == 3
        np.testing.assert_array_equal(z[:, 0], w2[:, 0] + w1[:, 1])
        np.testing.assert_array_equal(z[:, 1], [-np.inf, -np.inf])


class TestLogsumexp:
    """`logsumexp` is scipy.special.logsumexp bit for bit, in value, type
    and shape."""

    @staticmethod
    def assert_same(x, axis):
        with np.errstate(under="ignore"):   # exp of terms far below the max
            got, want = logsumexp(x, axis=axis), scipy.special.logsumexp(x, axis=axis)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_scipy(self, seed):
        gen = np.random.default_rng(seed)
        shape = ((7,), (5, 6), (3, 4, 5))[seed % 3]
        x = gen.normal(0.0, (1.0, 40.0, 700.0)[seed % 3], shape)
        if seed >= 3:
            x = np.round(x)                     # ties at the maximum
        x[gen.random(shape) < 0.25] = -np.inf
        if x.ndim > 1:
            x[0] = -np.inf                      # an all -inf row
        for view in (x, x.T, x[..., ::2]):
            for axis in (None, *range(x.ndim)):
                self.assert_same(view, axis)

    def test_edge_rows(self):
        rows = np.array([[2.0, 2.0, 2.0], [1.0, 2.0, 2.0], [-np.inf] * 3,
                         [np.inf, 0.0, 1.0], [np.nan, 0.0, 1.0], [-745.0, 0.0, 709.0]])
        for axis in (None, 0, 1):
            with np.errstate(invalid="ignore"):     # inf - inf
                self.assert_same(rows, axis)
        self.assert_same(np.array([3.5]), None)
        self.assert_same(np.zeros((3, 0)), 1)


class TestExactTable:
    def test_matches_path_enumeration(self, params):
        for seed in range(3):
            env = generate_dyadic_environment(params, 4, seed=seed)
            table = exact_partition_table(env)
            assert table == oracles.brute_table(env)

    def test_float_weights_also_exact(self, params):
        # binary64 weights are dyadic rationals, so Fractions stay lossless
        env = generate_environment(params, 3, seed=5)
        assert exact_partition_table(env) == oracles.brute_table(env)


class TestFloatTable:
    def test_log_agrees_with_exact(self, params):
        env = generate_environment(params, 6, seed=2)
        table = partition_table(env)
        exact = exact_partition_table(env)
        for (i, j), z in exact.items():
            lo = math.log(z.numerator) - math.log(z.denominator)
            assert table.grid[i, j] == pytest.approx(lo, abs=1e-10)

    def test_large_instance_stays_finite(self, params):
        # raw products overflow binary64 near size 150; log domain must not
        table = partition_table(generate_environment(params, 160, seed=1))
        prof = table.final_profile()
        assert prof.shape == (160,)
        assert np.all(np.isfinite(prof))

    def test_final_profile_order(self, params):
        env = generate_environment(params, 4, seed=3)
        prof = partition_table(env).final_profile()
        exact = exact_partition_table(env)
        for p in range(4):
            z = exact[4 + p, 4 - p]
            lo = math.log(z.numerator) - math.log(z.denominator)
            assert prof[p] == pytest.approx(lo, abs=1e-10)


class TestEndpointLaw:
    def test_pmf_normalized(self, params):
        table = partition_table(generate_environment(params, 30, seed=4))
        pmf = endpoint_pmf(table)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pmf >= 0)

    def test_pmf_matches_exact_ratios(self, params):
        env = generate_dyadic_environment(params, 5, seed=6)
        exact = exact_partition_table(env)
        line = [exact[5 + p, 5 - p] for p in range(5)]
        total = sum(line, Fraction(0))
        pmf = endpoint_pmf(partition_table(env))
        for p in range(5):
            assert pmf[p] == pytest.approx(float(line[p] / total), rel=1e-12)

    def test_point_to_line_tail(self, params):
        # the tail sums the drivers take as logsumexp(profile[m:])
        env = generate_dyadic_environment(params, 5, seed=7)
        exact = exact_partition_table(env)
        profile = partition_table(env).final_profile()
        for m in range(5):
            tail = sum((exact[5 + p, 5 - p] for p in range(m, 5)), Fraction(0))
            lo = math.log(tail.numerator) - math.log(tail.denominator)
            assert logsumexp(profile[m:]) == pytest.approx(lo, abs=1e-10)


def exact_path_pmf(env):
    """Quenched path law over move codes, from enumerated path weights."""
    n = env.n
    weights = {}
    for p in range(n):
        for path in oracles.paths_to(n + p, n - p):
            weights[path_code(list(path))] = oracles.path_weight(env, path)
    total = sum(weights.values(), Fraction(0))
    return {code: w / total for code, w in weights.items()}


def decode_path(code, n):
    """Sites of the path from (1,1) whose 2n-2 move bits are `code`."""
    i, j = 1, 1
    path = [(i, j)]
    for k in range(2 * n - 2):
        if code >> k & 1:
            i += 1
        else:
            j += 1
        path.append((i, j))
    return path


class TestPathSampling:
    def test_sample_path_shape(self, params):
        table = partition_table(generate_environment(params, 7, seed=9))
        codes = sample_path_codes(table, 20, seed=9, stream=0)
        assert np.all((codes >= 0) & (codes < 1 << 12))
        for code in codes:
            path = decode_path(int(code), 7)
            assert path_code(path) == code
            assert sum(path[-1]) == 14
            assert all(1 <= j <= i for i, j in path)

    def test_code_width_limit(self, params):
        # 2n - 2 move bits fill int64 up to the sign bit at n = 33
        big = partition_table(generate_environment(params, 33, seed=0))
        with pytest.raises(ValueError):
            sample_path_codes(big, 200, seed=0, stream=0)
        table = partition_table(generate_environment(params, 32, seed=0))
        codes = sample_path_codes(table, 200, seed=0, stream=0)
        assert np.all(codes >= 0)
        for code in codes[:20]:
            path = decode_path(int(code), 32)
            assert sum(path[-1]) == 64
            assert all(1 <= j <= i for i, j in path)

    def test_vectorized_code_law(self, params):
        env = generate_environment(params, 3, seed=11)
        pmf = exact_path_pmf(env)
        codes = sample_path_codes(partition_table(env), 20000, seed=11, stream=0)
        values, counts = np.unique(codes, return_counts=True)
        assert set(values.tolist()) <= set(pmf)
        lookup = dict(zip(values.tolist(), counts.tolist()))
        observed = [lookup.get(c, 0) for c in pmf]
        expected = [float(q) * 20000 for q in pmf.values()]
        res = scipy.stats.chisquare(observed, expected)
        assert res.pvalue > 1e-3

    def test_codes_batch_invariant(self, params):
        table = partition_table(generate_environment(params, 5, seed=12))
        full = sample_path_codes(table, 40, seed=12, stream=3)
        head = sample_path_codes(table, 7, seed=12, stream=3)
        np.testing.assert_array_equal(full[:7], head)

    def test_path_code_by_hand(self):
        path = [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]
        # moves: up, right, up, right -> bits 0 and 2 set
        assert path_code(path) == 0b0101


class TestBatchProfiles:
    @pytest.mark.parametrize("flavor", ["standard", "stationary"])
    def test_matches_per_env_tables(self, params, flavor):
        streams = np.arange(4, dtype=np.uint64)
        batch = batch_final_profiles(params, 12, flavor, 7, streams)
        assert batch.shape == (4, 12)
        for b, s in enumerate(streams):
            env = generate_environment(params, 12, flavor, seed=7, stream=int(s))
            np.testing.assert_allclose(batch[b],
                                       partition_table(env).final_profile(),
                                       rtol=0, atol=1e-10)

    def test_peak_memory_of_one_stream_block(self):
        # a 500-stream block to N = 200, as the sweep workload runs it; D is
        # one diagonal-sized array, 500 x 200 doubles, and the output is 1 D.
        # The traced peak, 6.7 D, comes while the last diagonal is drawn:
        # its keys and draws (2 D), the draws' row-block scratch (about
        # 2 D), the previous diagonal's weights and values (2 D) and the
        # draws' gathers of rejected lanes.  A step that keeps the plus's
        # padded copy alive across the yield reads 7.7 D.
        rows, n = 500, 200
        params, streams = ModelParams(1.0, -0.5), np.arange(rows, dtype=np.uint64)
        batch_final_profiles(params, 4, "standard", 0, streams[:2])
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = batch_final_profiles(params, n, "standard", 0, streams)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert out.shape == (rows, n)
        assert peak <= 6.2 * rows * n * 8 + out.nbytes
