"""Partition recurrences, endpoint law, and quenched path sampling."""
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from scipy.special import logsumexp

import oracles
from hslg_lab.environment import (generate_dyadic_environment,
                                  generate_environment)
from hslg_lab.polymer import (batch_final_profiles, endpoint_pmf,
                              exact_partition_table, partition_table,
                              sample_path_codes)
from oracles import path_code


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
