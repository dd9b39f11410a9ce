"""Diagonal-transfer rewiring: exhaustive contract sweeps and the
anti-diagonal product inequality."""
import math
from fractions import Fraction

import pytest

from hslg_lab import cli, umap
from hslg_lab.environment import generate_dyadic_environment, symmetrize
from hslg_lab.umap import (UMapError, apply_umap, check_sbd_inequality,
                           enumerate_disjoint_pairs, enumerate_quadrant_paths,
                           property_violations)
from oracles import count_preimages

DOMAINS = [(2, 2), (3, 2), (4, 3), (4, 4)]


def path_count(start, end):
    """Up-right path count in the free quadrant (binomial oracle)."""
    di, dj = end[0] - start[0], end[1] - start[1]
    if di < 0 or dj < 0:
        return 0
    return math.comb(di + dj, di)


def pair_count_det(m, n, x):
    """Vertex-disjoint pair count via the 2x2 crossing-cancellation
    determinant of free path counts."""
    a = path_count((1, x + 1), (m, n))
    b = path_count((1, x + 1), (m, n - 1))
    c = path_count((1, x), (m, n))
    d = path_count((1, x), (m, n - 1))
    return a * d - b * c


def diag_points(path):
    return [s for s in path if s[0] == s[1]]


def site_multiset(*paths):
    return sorted((min(i, j), max(i, j)) for p in paths for i, j in p)


class TestEnumeration:
    def test_forced_domain(self):
        assert len(enumerate_disjoint_pairs(2, 2, 1)) == 1

    @pytest.mark.parametrize("m,n", DOMAINS)
    @pytest.mark.parametrize("x", [1, 2])
    def test_counts_match_determinant(self, m, n, x):
        pairs = enumerate_disjoint_pairs(m, n, x)
        assert len(pairs) == pair_count_det(m, n, x)
        for p1, p2 in pairs:
            assert not set(p1) & set(p2)

    def test_quadrant_path_counts(self):
        assert len(enumerate_quadrant_paths((1, 1), (3, 3))) == math.comb(4, 2)
        assert enumerate_quadrant_paths((2, 2), (1, 1)) == []


class TestApplyUmap:
    def test_hand_traced_minimal_pair(self):
        q1, q2 = apply_umap([(1, 2), (2, 2)], [(1, 1), (2, 1)])
        assert q1 == ((1, 2),)
        assert q2 == ((1, 1), (2, 1), (2, 2))

    @pytest.mark.parametrize("m,n", DOMAINS)
    @pytest.mark.parametrize("x", [1, 2])
    def test_no_violations_on_exhaustive_domains(self, m, n, x):
        assert property_violations(m, n, x) == []

    def test_single_run_pairs_copy_below_transfer(self):
        # when pi1 touches the diagonal in a single final run, every
        # segment before the tail swap is copied verbatim
        for p1, p2 in enumerate_disjoint_pairs(4, 3, 1):
            if len(diag_points(p1)) != 1:
                continue
            q1, q2 = apply_umap(p1, p2)
            anchor = max(diag_points(p2))
            keep2 = p2[: p2.index(anchor)]
            assert q2[: len(keep2)] == keep2

    def test_weight_product_preserved_exactly(self, params):
        pairs = enumerate_disjoint_pairs(4, 3, 1)
        for seed in range(3):
            senv = symmetrize(generate_dyadic_environment(params, 4, seed=seed))
            for p1, p2 in pairs:
                q1, q2 = apply_umap(p1, p2)
                before = Fraction(1)
                for site in list(p1) + list(p2):
                    before *= senv.weight_fraction(*site)
                after = Fraction(1)
                for site in list(q1) + list(q2):
                    after *= senv.weight_fraction(*site)
                assert before == after

    def test_site_multiset_preserved_up_to_reflection(self):
        for p1, p2 in enumerate_disjoint_pairs(4, 4, 2):
            q1, q2 = apply_umap(p1, p2)
            assert site_multiset(p1, p2) == site_multiset(q1, q2)

    def test_rejects_intersecting_inputs(self):
        p1 = [(1, 2), (2, 2), (3, 2), (4, 2), (4, 3)]
        p2 = [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2)]  # shares three sites
        with pytest.raises(UMapError):
            apply_umap(p1, p2)

    def test_rejects_wrong_endpoints(self):
        with pytest.raises(UMapError):
            apply_umap([(1, 2), (2, 2), (2, 3)], [(1, 1), (2, 1)])

    def test_rejects_non_upright(self):
        with pytest.raises(UMapError):
            apply_umap([(1, 2), (3, 2)], [(1, 1), (2, 1)])

    def test_broken_tail_step_is_a_reported_failure(self, monkeypatch, capsys):
        # a tail step that returns its segments unchanged leaves the outputs
        # at the input endpoints; verify umap must say FAIL, not raise
        monkeypatch.setattr(umap, "_case_tail", lambda seg1, seg2: (seg1, seg2))
        assert cli.main(["verify", "umap"]) == 1
        out = capsys.readouterr().out
        assert "FAIL: 35 violations; first: (m=2, n=2, x=1) endpoints" in out


class TestPreimages:
    def test_minimal_image_unique(self):
        counts = count_preimages(2, 2, 1)
        image = (((1, 2),), ((1, 1), (2, 1), (2, 2)))
        assert counts == {image: 1}

    @pytest.mark.parametrize("m,n,x", [(4, 3, 1), (4, 3, 2), (4, 4, 1)])
    def test_counts_within_bounds(self, m, n, x):
        counts = count_preimages(m, n, x)
        assert sum(counts.values()) == pair_count_det(m, n, x)
        for (q1, q2), c in counts.items():
            d = len(diag_points(q1)) + len(diag_points(q2))
            assert c <= 2 ** d
            assert c <= 2 ** n

    def test_unattained_image_absent(self):
        counts = count_preimages(3, 2, 1)
        fake = (((1, 2), (1, 3)), ((1, 1), (2, 1), (3, 1), (3, 2)))
        assert counts.get(fake, 0) == 0


def umap_pairs(paths):
    """A 2k-tuple (top start first) rewired pair by pair with `apply_umap`."""
    return [q for a, b in zip(paths[::2], paths[1::2]) for q in apply_umap(a, b)]


class TestTupleMap:
    def test_pair_case_matches_apply_umap(self):
        for p1, p2 in enumerate_disjoint_pairs(3, 2, 1):
            assert tuple(umap_pairs([p1, p2])) == apply_umap(p1, p2)

    def test_two_pair_tuples(self):
        # tuple endpoints: (1,4)->(5,5), (1,3)->(5,4), (1,2)->(5,3), (1,1)->(5,2)
        top = enumerate_disjoint_pairs(5, 5, 3)
        bottom = enumerate_disjoint_pairs(5, 3, 1)
        assert top and bottom
        for p1, p2 in top[:10]:
            for p3, p4 in bottom[:10]:
                q = umap_pairs([p1, p2, p3, p4])
                before = sum(len(diag_points(p)) for p in (p1, p2, p3, p4))
                after = sum(len(diag_points(p)) for p in q)
                assert after == before
                assert not set(q[0]) & set(q[1])
                assert not set(q[2]) & set(q[3])
                assert site_multiset(p1, p2) == site_multiset(q[0], q[1])
                assert site_multiset(p3, p4) == site_multiset(q[2], q[3])


class TestSbdInequality:
    @pytest.mark.parametrize("m,n,k,envs", [(3, 2, 1, 100), (4, 4, 1, 100),
                                            (5, 4, 2, 50)])
    def test_holds_on_dyadic_environments(self, params, m, n, k, envs):
        for seed in range(envs):
            senv = symmetrize(generate_dyadic_environment(params, 6, seed=seed))
            res = check_sbd_inequality(senv, m, n, k)
            assert res.holds, f"seed {seed}: lhs {res.lhs} > rhs {res.rhs}"
            assert res.lhs <= res.rhs

    def test_domain_guard(self, params):
        senv = symmetrize(generate_dyadic_environment(params, 5, seed=0))
        with pytest.raises(ValueError):
            check_sbd_inequality(senv, 4, 3, 2)  # 2k > n
        with pytest.raises(ValueError):
            check_sbd_inequality(senv, 3, 4, 1)  # n > m
        with pytest.raises(ValueError):
            check_sbd_inequality(senv, 4, 4, 0)
