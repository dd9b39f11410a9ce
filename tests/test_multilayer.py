"""Symmetrized multilayer values, V_q aggregates, and the line ensemble."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hslg_lab import multilayer
from hslg_lab.environment import (Environment, generate_dyadic_environment,
                                  generate_environment, symmetrize, wedge_count)
from hslg_lab.multilayer import (InstanceTooLarge, batch_diag_avoiding_profiles,
                                 enumerate_quadrant_paths, exact_det,
                                 curve_length, line_ensemble,
                                 log_det_scaled,
                                 multilayer_brute, multilayer_lgv,
                                 quadrant_exact_table, quadrant_log_table,
                                 staircase_site, vq_exact, vq_tilde_exact)
from hslg_lab.polymer import EXACT, collect, exact_partition_table, sweep_region
from hslg_lab.special import ModelParams
from oracles import (diag_avoiding_exact, diag_avoiding_log_table, fraction_log,
                     fraction_line_ensemble, permutation_det, quadrant_fraction_table)


def senv_of(params, n, seed, dyadic=True):
    gen = generate_dyadic_environment if dyadic else generate_environment
    return symmetrize(gen(params, n, seed=seed))


class TestBruteForce:
    def test_single_path_forced(self, params):
        senv = senv_of(params, 3, seed=0)
        expected = senv.weight_fraction(1, 1) * senv.weight_fraction(2, 1)
        assert multilayer_brute(senv, 2, 1, 1) == expected

    def test_two_layer_forced(self, params):
        senv = senv_of(params, 3, seed=1)
        expected = Fraction(1)
        for site in [(1, 2), (2, 2), (1, 1), (2, 1)]:
            expected *= senv.weight_fraction(*site)
        assert multilayer_brute(senv, 2, 2, 2) == expected

    def test_zero_layers(self, params):
        senv = senv_of(params, 3, seed=2)
        assert multilayer_brute(senv, 4, 2, 0) == Fraction(1)

    def test_instance_cap(self, params):
        senv = senv_of(params, 30, seed=3)
        with pytest.raises(InstanceTooLarge):
            multilayer_brute(senv, 30, 25, 3)
        # 39 cells pass the cell cap, but C(38, 19) ~ 3.5e10 single paths
        # are refused by their count, before any is listed
        with pytest.raises(InstanceTooLarge, match="path tuples"):
            multilayer_brute(senv, 20, 20, 1)


class TestLgv:
    @pytest.mark.parametrize("m,n,r", [(3, 2, 2), (4, 3, 2), (5, 3, 3),
                                       (4, 2, 1), (6, 4, 3), (5, 5, 2)])
    def test_matches_brute(self, params, m, n, r):
        for seed in range(3):
            senv = senv_of(params, 6, seed=seed)
            assert multilayer_lgv(senv, m, n, r) == \
                multilayer_brute(senv, m, n, r)

    def test_float_close_to_exact(self, params):
        # the float determinant line_ensemble takes first: log_det_scaled
        # of the per-start quadrant_log_table values
        senv = senv_of(params, 5, seed=4, dyadic=False)
        for m, n, r in [(4, 3, 1), (5, 4, 2), (6, 3, 3)]:
            exact = multilayer_lgv(senv, m, n, r)
            tables = [quadrant_log_table(senv, r - a, m, n) for a in range(r)]
            logm = np.array([[tables[a][m, n - b] for b in range(r)]
                             for a in range(r)])
            assert log_det_scaled(logm) == pytest.approx(fraction_log(exact),
                                                         abs=1e-10)

    def test_cancelled_float_determinant_raises(self):
        # det = e^{1e-10} - 1, far below 1e-8 of its Hadamard bound
        with pytest.raises(FloatingPointError, match="cancellation"):
            log_det_scaled(np.array([[0.0, 0.0], [0.0, 1e-10]]))

    def test_zero_layer_convention(self, params):
        senv = senv_of(params, 3, seed=5)
        assert multilayer_lgv(senv, 4, 2, 0) == Fraction(1)

    def test_layer_bounds(self, params):
        senv = senv_of(params, 3, seed=5)
        with pytest.raises(ValueError):
            multilayer_lgv(senv, 4, 2, 3)  # r > n: family is empty
        with pytest.raises(ValueError):
            multilayer_lgv(senv, 4, 2, -1)

    def test_doubling_identity(self, params):
        # twice the symmetrized single-path value reproduces the wedge
        # partition function, exactly, site by site
        for seed in range(3):
            env = generate_dyadic_environment(params, 5, seed=seed)
            table = exact_partition_table(env)
            senv = symmetrize(env)
            for (i, j), z in table.items():
                assert 2 * multilayer_lgv(senv, i, j, 1) == z


class TestDiagAvoiding:
    def test_trivial_path(self, params):
        senv = senv_of(params, 3, seed=6)
        expected = senv.weight_fraction(1, 1) * senv.weight_fraction(2, 1)
        assert diag_avoiding_exact(senv, 2, 1) == expected

    def test_excludes_diagonal_returns(self, params):
        senv = senv_of(params, 4, seed=7)
        got = diag_avoiding_exact(senv, 3, 2)
        brute = Fraction(0)
        for path in enumerate_quadrant_paths((1, 1), (3, 2)):
            if any(i == j for i, j in path[1:]):
                continue
            prod = Fraction(1)
            for site in path:
                prod *= senv.weight_fraction(*site)
            brute += prod
        assert got == brute

    def test_brute_all_offdiagonal_sites(self, params):
        senv = senv_of(params, 4, seed=8)
        for m in range(2, 6):
            for n in range(1, min(m, 8 - m) + 1):
                if m == n:
                    continue
                brute = Fraction(0)
                for path in enumerate_quadrant_paths((1, 1), (m, n)):
                    if any(i == j for i, j in path[1:]):
                        continue
                    prod = Fraction(1)
                    for site in path:
                        prod *= senv.weight_fraction(*site)
                    brute += prod
                assert diag_avoiding_exact(senv, m, n) == brute
                assert brute <= multilayer_lgv(senv, m, n, 1)

    def test_diagonal_endpoint_rejected(self, params):
        senv = senv_of(params, 3, seed=9)
        with pytest.raises(ValueError):
            diag_avoiding_exact(senv, 3, 3)

    def test_log_table_matches_exact(self, params):
        senv = senv_of(params, 4, seed=10, dyadic=False)
        table = diag_avoiding_log_table(senv, 6, 3)
        for m in range(2, 7):
            for n in range(1, min(m - 1, 3, 8 - m) + 1):
                exact = diag_avoiding_exact(senv, m, n)
                assert table[m, n] == pytest.approx(fraction_log(exact),
                                                    abs=1e-10)


class TestVq:
    def test_v2_is_origin_weight(self, params):
        senv = senv_of(params, 3, seed=11)
        assert vq_exact(senv, 2) == senv.weight_fraction(1, 1)

    def test_vq_sums_symmetrized_line(self, params):
        senv = senv_of(params, 4, seed=12)
        for q in range(2, 9):
            expected = sum((multilayer_lgv(senv, q - j, j, 1)
                            for j in range(1, q // 2 + 1)), Fraction(0))
            assert vq_exact(senv, q) == expected

    def test_v2n_is_half_point_to_line(self, params):
        env = generate_dyadic_environment(params, 5, seed=13)
        table = exact_partition_table(env)
        line = sum((table[5 + p, 5 - p] for p in range(5)), Fraction(0))
        assert vq_exact(symmetrize(env), 10) == line / 2

    def test_vq_tilde_below_vq(self, params):
        senv = senv_of(params, 4, seed=14)
        for q in range(3, 9):
            assert vq_tilde_exact(senv, q) <= vq_exact(senv, q)

    def test_vq_tilde_matches_path_sum(self, params):
        # descending then ascending q: each call must build its own table
        senv = senv_of(params, 4, seed=22)
        want = {}
        for q in range(3, 9):
            total = Fraction(0)
            for j in range(1, (q - 1) // 2 + 1):
                for path in enumerate_quadrant_paths((1, 1), (q - j, j)):
                    if any(a == b for a, b in path[1:]):
                        continue
                    prod = Fraction(1)
                    for site in path:
                        prod *= senv.weight_fraction(*site)
                    total += prod
            want[q] = total
        for q in list(range(8, 2, -1)) + list(range(3, 9)):
            assert vq_tilde_exact(senv, q) == want[q]

    def test_domain_errors(self, params):
        senv = senv_of(params, 3, seed=16)
        with pytest.raises(ValueError):
            vq_exact(senv, 1)
        with pytest.raises(ValueError):
            vq_tilde_exact(senv, 2)


class TestLineEnsemble:
    def test_curve_one_is_log_partition(self, params):
        env = generate_environment(params, 6, seed=17)
        table = exact_partition_table(env)
        ens = line_ensemble(symmetrize(env), kmax=1)
        assert ens.n == 5
        for p in range(1, curve_length(ens.n, 1) + 1):
            i, j = staircase_site(5, p)
            assert ens.h(1, p) == pytest.approx(fraction_log(table[i, j]), abs=1e-10)

    def test_exact_matches_float(self, params):
        senv = senv_of(params, 5, seed=18, dyadic=False)
        fl = line_ensemble(senv, kmax=2, mode="float")
        ex = line_ensemble(senv, kmax=2, mode="exact")
        for k in (1, 2):
            for p in range(1, curve_length(fl.n, k) + 1):
                assert fl.h(k, p) == pytest.approx(ex.h(k, p), abs=1e-10)

    def test_curve_two_vs_brute(self, params):
        senv = senv_of(params, 5, seed=19)
        ens = line_ensemble(senv, kmax=2, mode="exact", order=4)
        for p in range(1, curve_length(ens.n, 2) + 1):
            m, ncol = staircase_site(4, p)
            ratio = multilayer_brute(senv, m, ncol, 2) / \
                multilayer_brute(senv, m, ncol, 1)
            assert ens.h(2, p) == pytest.approx(
                math.log(2) + fraction_log(ratio), abs=1e-12)

    def test_staircase_by_hand(self):
        assert staircase_site(4, 1) == (4, 4)
        assert staircase_site(4, 2) == (5, 4)
        assert staircase_site(4, 3) == (5, 3)
        assert staircase_site(4, 8) == (8, 1)

    def test_bounds(self, params):
        senv = senv_of(params, 3, seed=20)
        with pytest.raises(ValueError):
            line_ensemble(senv, kmax=3)  # order defaults to 2
        with pytest.raises(ValueError):
            line_ensemble(senv, kmax=1, order=3)  # needs env one larger
        ens = line_ensemble(senv, kmax=2)
        with pytest.raises(KeyError):
            ens.h(3, 1)
        with pytest.raises(KeyError):
            ens.h(1, curve_length(ens.n, 1) + 1)


class TestBatchDiagAvoiding:
    def test_matches_per_env(self, params):
        streams = np.arange(3, dtype=np.uint64)
        batch = batch_diag_avoiding_profiles(params, 8, "standard", 21, streams)
        assert batch.shape == (3, 7)
        for b in range(3):
            senv = symmetrize(generate_environment(params, 8, seed=21,
                                                    stream=b))
            table = diag_avoiding_log_table(senv, 15, 7)
            want = [table[8 + p, 8 - p] for p in range(1, 8)]
            np.testing.assert_allclose(batch[b], want, rtol=0, atol=1e-10)


LATTICE_PARAMS = ModelParams(1.0, -0.3)
LATTICE_ORDERS = (7, 9, 11)


def lattice_senv(order, stream=0):
    """A seed-0 environment at the lattice point, sized for an ensemble of
    `order`; streams 0-7 at orders 7, 9 and 11 are the lattice workload's."""
    return symmetrize(generate_environment(LATTICE_PARAMS, order + 1, seed=0,
                                           stream=stream))


def extreme_senv(params):
    """Size 3 with dyadic weights, a subnormal diagonal weight whose float
    halving rounds, at (2, 2), and a weight near 1e300 at (4, 1)."""
    w = np.linspace(0.25, 1.75, wedge_count(3))
    w[2] = math.ldexp(5.0, -1074)       # halved in float: 2^-1073, not 2.5 * 2^-1074
    w[6] = 1.5e300
    return Environment(params, 3, "standard", w)


def staircase_matrices(senv, order, k):
    """The k x k LGV matrices `line_ensemble` builds along its staircase."""
    tables = {c: multilayer.quadrant_exact_table(senv, c, 2 * order, order + 1)
              for c in range(1, k + 1)}
    for p in range(1, 2 * order - 2 * k + 3):
        m, ncol = staircase_site(order, p)
        ends = [(m, ncol - b) for b in range(k)]
        yield [[tables[k - a].get(e, Fraction(0)) for e in ends] for a in range(k)]


class TestExactDet:
    def test_two_by_two(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
        assert exact_det(m) == Fraction(1, 14) - Fraction(1, 15)

    def test_permutation_parity(self):
        m = [[Fraction(0), Fraction(1), Fraction(0)],
             [Fraction(0), Fraction(0), Fraction(1)],
             [Fraction(1), Fraction(0), Fraction(0)]]
        assert exact_det(m) == Fraction(1)  # even permutation

    @pytest.mark.parametrize("k", range(7))
    def test_random_matches_leibniz(self, k):
        rnd = random.Random(k)
        entries = [0, 1, -3, Fraction(1, 3), Fraction(-1, 7), Fraction(5, 8)]
        for _ in range(40):
            m = [[rnd.choice(entries) if rnd.random() < 0.3
                  else Fraction(rnd.randint(-20, 20), rnd.choice([1, 3, 7, 16, 21]))
                  for _ in range(k)] for _ in range(k)]
            det = exact_det(m)
            assert isinstance(det, Fraction)
            assert det == permutation_det(m)

    def test_empty_matrix(self):
        assert exact_det([]) == Fraction(1) == permutation_det([])

    def test_zero_pivot_swaps_rows(self):
        m = [[Fraction(0), Fraction(2), Fraction(1, 3)],
             [Fraction(1, 7), Fraction(1), Fraction(0)],
             [Fraction(-1), Fraction(0), Fraction(5)]]
        assert exact_det(m) == permutation_det(m) != 0
        # a zero pivot after the first elimination step
        m = [[1, 2, 3], [2, 4, 7], [1, 5, 2]]
        assert exact_det(m) == permutation_det(m) == -3

    def test_singular(self):
        zero_col = [[Fraction(1, 3), 0, Fraction(2)], [Fraction(-1), 0, Fraction(1, 7)],
                    [Fraction(4), 0, Fraction(1)]]
        equal_rows = [[Fraction(1, 3), Fraction(-2), Fraction(1, 7)],
                      [Fraction(5), Fraction(1), Fraction(0)],
                      [Fraction(1, 3), Fraction(-2), Fraction(1, 7)]]
        for m in (zero_col, equal_rows):
            assert exact_det(m) == permutation_det(m) == 0

    def test_staircase_matrices_match_leibniz(self):
        senv = lattice_senv(7)
        mats = list(staircase_matrices(senv, 7, 6))
        assert len(mats) == 4
        for m in mats:
            det = exact_det(m)
            assert det > 0
            assert det == permutation_det(m)


class TestExactCells:
    """The integer cells of an EXACT sweep, over 2^(scale * path cells), are
    the Fraction values: nothing truncates."""

    def test_wedge_cells_on_dyadic_environments(self, params):
        for seed in range(3):
            env = generate_dyadic_environment(params, 5, seed=seed)
            cells = collect(sweep_region(env, EXACT, 2, lambda s: (1, s // 2)),
                            EXACT, 9, 5)
            want = oracles.brute_table(env)
            assert {site: Fraction(z, 2 ** (env.dyadic_scale * (site[0] + site[1] - 1)))
                    for site, z in cells.items()} == want
            assert exact_partition_table(env) == want

    @pytest.mark.parametrize("order", LATTICE_ORDERS)
    def test_quadrant_cells_on_lattice_environments(self, order):
        senv = lattice_senv(order)
        scale = senv.dyadic_scale
        for c in range(1, 7):
            cells = multilayer._quadrant_table(senv, c, 2 * order, order + 1, EXACT)
            want = quadrant_fraction_table(senv, c, 2 * order, order + 1)
            assert all(isinstance(z, int) for z in cells.values())
            assert {site: Fraction(z, 2 ** (scale * (site[0] + site[1] - c)))
                    for site, z in cells.items()} == want
            assert quadrant_exact_table(senv, c, 2 * order, order + 1) == want

    def test_subnormal_and_huge_weights(self, params):
        env = extreme_senv(params)
        senv = symmetrize(env)
        assert exact_partition_table(env) == oracles.brute_table(env)
        for c in (1, 2, 3):
            assert quadrant_exact_table(senv, c, 5, 3) == \
                quadrant_fraction_table(senv, c, 5, 3)
        for m in range(1, 6):
            for n in range(1, min(m, 6 - m) + 1):
                for r in range(1, n + 1):
                    assert multilayer_lgv(senv, m, n, r) == multilayer_brute(senv, m, n, r)
        ours = line_ensemble(senv, 2, mode="exact", order=2)
        ref = fraction_line_ensemble(senv, 2, "exact", 2)
        for a, b in zip(ours.curves, ref, strict=True):
            assert a.tobytes() == b.tobytes()


class TestFractionRoute:
    """The integer route against the Fraction one, bitwise, on the lattice
    workload's 24 environments."""

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("order", LATTICE_ORDERS)
    def test_curves_bitwise_equal(self, order, mode):
        for stream in range(8):
            senv = lattice_senv(order, stream)
            ours = line_ensemble(senv, 6, mode=mode, order=order)
            ref = fraction_line_ensemble(senv, 6, mode, order)
            for a, b in zip(ours.curves, ref, strict=True):
                assert a.tobytes() == b.tobytes()


class TestEnsembleFallback:
    @pytest.mark.parametrize("order", LATTICE_ORDERS)
    def test_each_cancelled_layer_taken_once(self, monkeypatch, order):
        # what the benchmark's layer_evals_match_determinants probe counts
        kmax = 6
        float_calls, cancelled, exact_calls = [0], set(), [0]

        def counted_float(log_matrix):
            float_calls[0] += 1
            try:
                return log_det_scaled(log_matrix)
            except FloatingPointError:
                cancelled.add(log_matrix.tobytes())
                raise

        def counted_exact(matrix):
            exact_calls[0] += 1
            return exact_det(matrix)

        monkeypatch.setattr(multilayer, "log_det_scaled", counted_float)
        monkeypatch.setattr(multilayer, "exact_det", counted_exact)
        line_ensemble(lattice_senv(order), kmax, order=order)
        assert float_calls[0] == sum(curve_length(order, k) * (2 if k >= 2 else 1)
                                     for k in range(1, kmax + 1))
        assert exact_calls[0] == len(cancelled) > 0

    def test_fallback_curves_bitwise_equal_to_oracle(self, monkeypatch):
        senv = lattice_senv(7)
        calls = {"library": 0, "oracle": 0}

        def counted(name, det):
            def wrapper(matrix):
                calls[name] += 1
                return det(matrix)
            return wrapper

        monkeypatch.setattr(multilayer, "exact_det", counted("library", exact_det))
        ours = line_ensemble(senv, 6, order=7)
        monkeypatch.setattr(multilayer, "exact_det", counted("oracle", permutation_det))
        ref = line_ensemble(senv, 6, order=7)
        assert calls["library"] > 0
        assert calls["library"] == calls["oracle"]
        for a, b in zip(ours.curves, ref.curves, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1)])
    def test_non_positive_exact_layer_raises(self, monkeypatch, params, bad):
        def cancelled(log_matrix):
            raise FloatingPointError("forced fallback")

        senv = senv_of(params, 4, seed=3)
        monkeypatch.setattr(multilayer, "log_det_scaled", cancelled)
        monkeypatch.setattr(multilayer, "exact_det", lambda matrix: bad)
        with pytest.raises(FloatingPointError):
            line_ensemble(senv, 2)
        with pytest.raises(FloatingPointError):
            line_ensemble(senv, 2, mode="exact")
