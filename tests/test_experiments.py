"""Experiment drivers: rows do not depend on threads or stream blocking."""
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import digamma

from hslg_lab import cli, environment, experiments, walk
from hslg_lab.experiments import STREAM_BLOCK, ExperimentConfig
from hslg_lab.multilayer import batch_diag_avoiding_profiles
from hslg_lab.polymer import batch_final_profiles
from hslg_lab.rng import LANE_BOOTSTRAP, LANE_CHAIN
from hslg_lab.special import ModelParams
from hslg_lab.stats import ks_test

CONFIG = ExperimentConfig(ModelParams(1.0, -0.5), (6, 8), 300, seed=3,
                          walk_samples=500, small_sizes=(3, 5), small_samples=8)
FINAL, BELOW = "batch_final_profiles", "batch_diag_avoiding_profiles"


@pytest.mark.parametrize("driver", [experiments.run_pinning,
                                    experiments.run_walk_attractor,
                                    experiments.run_quenched_limit,
                                    experiments.run_gaussian_fluct,
                                    experiments.run_lln_profile])
def test_rows_identical_across_threads(driver):
    # 300 samples make two stream blocks (256 + 44), so with 2 threads the
    # blocks run concurrently and are stacked back in order
    assert CONFIG.samples > STREAM_BLOCK
    # quenched takes one size
    config = (replace(CONFIG, sizes=CONFIG.sizes[-1:])
              if driver is experiments.run_quenched_limit else CONFIG)
    one = driver(config)
    two = driver(replace(config, threads=2))
    assert one.rows and one.rows == two.rows
    assert [(c.name, c.passed, c.detail) for c in one.checks] == \
           [(c.name, c.passed, c.detail) for c in two.checks]


def test_profiles_do_not_depend_on_stream_blocks():
    blocked, = experiments._profiles(CONFIG, "standard", (8,))
    whole = batch_final_profiles(CONFIG.params, 8, "standard", CONFIG.seed,
                                 np.arange(CONFIG.samples, dtype=np.uint64))
    np.testing.assert_array_equal(blocked, whole)


class TestOneSweep:
    """Each driver sweeps each flavor once per stream block, to the largest
    size, and reads every size's profile off that sweep's diagonal 2N."""

    SIZES = (2, 3, 10, 17)
    STREAMS = np.arange(STREAM_BLOCK + 44, dtype=np.uint64)   # two blocks' worth

    @pytest.mark.parametrize("flavor", environment.FLAVORS)
    @pytest.mark.parametrize("batch, short", [(batch_final_profiles, 0),
                                              (batch_diag_avoiding_profiles, 1)])
    def test_size_slices_equal_single_size_calls(self, batch, short, flavor):
        n = self.SIZES[-1]
        whole = batch(CONFIG.params, n, flavor, CONFIG.seed, self.STREAMS, self.SIZES)
        assert whole.shape == (self.STREAMS.size, sum(m - short for m in self.SIZES))
        lo = 0
        for m in self.SIZES:
            one = batch(CONFIG.params, m, flavor, CONFIG.seed, self.STREAMS)
            assert one.shape == (self.STREAMS.size, m - short)
            np.testing.assert_array_equal(whole[:, lo:lo + m - short], one)
            lo += m - short

    @pytest.mark.parametrize("batch, sizes", [
        (batch_final_profiles, (3, 10)),          # does not end at n
        (batch_final_profiles, (10, 3, 17)),      # not increasing
        (batch_final_profiles, (0, 17)),
        (batch_diag_avoiding_profiles, (1, 17)),  # size 1 has no strict wedge
    ])
    def test_sizes_must_increase_to_n(self, batch, sizes):
        with pytest.raises(ValueError, match="sizes must increase strictly"):
            batch(CONFIG.params, 17, "standard", 0, self.STREAMS[:4], sizes)

    @pytest.mark.parametrize("driver, flavor, swept", [
        (experiments.run_pinning, "standard", {(FINAL, "standard")}),
        (experiments.run_walk_attractor, "standard", {(FINAL, "standard")}),
        (experiments.run_walk_attractor, "stationary", {(FINAL, "stationary")}),
        (experiments.run_gaussian_fluct, "standard",
         {(FINAL, "standard"), (FINAL, "stationary")}),
        (experiments.run_lln_profile, "standard",
         {(FINAL, "standard"), (BELOW, "alpha-zero-diagonal")}),
    ])
    def test_one_call_per_stream_block_per_flavor(self, driver, flavor, swept,
                                                  monkeypatch):
        # counting wrappers at the module attributes, where the bench wraps
        calls = []
        for name in (FINAL, BELOW):
            def counted(*args, name=name, fn=getattr(experiments, name), **kwargs):
                calls.append(((name, args[2]), args[1], int(args[4][0]), args[4].size))
                return fn(*args, **kwargs)
            monkeypatch.setattr(experiments, name, counted)
        config = replace(CONFIG, flavor=flavor)
        driver(config)
        n = max(config.sizes)
        blocks = experiments._stream_blocks(config, config.samples)
        assert len(blocks) == 2
        assert {key for key, *_ in calls} == swept
        for key in swept:
            mine = [(size, start, cnt) for k, size, start, cnt in calls if k == key]
            assert mine == [(n, start, cnt) for start, cnt in blocks]
            assert sum(cnt * size ** 2 for size, _, cnt in mine) == config.samples * n ** 2


def test_walk_lanes_stay_below_the_bootstrap_lanes(monkeypatch):
    # a walk drawn to the cap of its certificate must stay in the chain
    # namespace, below LANE_BOOTSTRAP, the next one; the window is at most
    # the cap, so a walk draws at most 2 CAP steps
    assert LANE_CHAIN < LANE_CHAIN + 2 * (walk.CAP + walk.CAP) + 1 < LANE_BOOTSTRAP

    seen = []
    keys = walk.lane_keys

    def record(seed, stream, lanes):
        seen.append(int(np.max(lanes)))
        return keys(seed, stream, lanes)

    monkeypatch.setattr(walk, "lane_keys", record)
    monkeypatch.setattr(walk, "_window", lambda params: 8)
    monkeypatch.setattr(walk, "CAP", 50)
    out = walk.limiting_endpoint_pmf(CONFIG.params, 0, [0, 1], 3, 1e-300)
    assert not out.converged.any()
    assert max(seen) == LANE_CHAIN + 2 * (50 + 8) - 1


# ---------------------------------------------------------------------------
# per-size checks against known limits

def _failed(report, prefix):
    return [c.name for c in report.checks
            if c.name.startswith(prefix) and not c.passed]


class TestPinningWalkLimit:
    """`run_pinning` checks that every walk series is certified, and KS-tests
    the log tail mass against the walk limit at each k > 0 of `k_grid` and at
    ceil(deep_m sqrt(N)) (15 at N = 50)."""

    CONFIG = ExperimentConfig(ModelParams(1.0, -0.5), (50,), 1000, seed=1)
    DEPTHS = (1, 2, 4, 10, 15)

    def test_passes_against_the_walk_at_the_right_alpha(self):
        rep = experiments.run_pinning(self.CONFIG)
        assert [c.name for c in rep.checks] == ["walk_series_certified"] + [
            f"tail_mass_k{k}_walk_limit_N50" for k in self.DEPTHS]
        assert rep.passed

    def test_fails_the_certificate_when_walks_reach_the_cap(self, monkeypatch):
        # a 20-step cap leaves about half of these walks uncertified; the
        # tail KS tests still run on them, so the certificate must fail
        monkeypatch.setattr(walk, "_window", lambda params: 8)
        monkeypatch.setattr(walk, "CAP", 20)
        rep = experiments.run_pinning(
            ExperimentConfig(ModelParams(1.0, -0.5), (10, 20), 200))
        assert _failed(rep, "walk_series_certified") == ["walk_series_certified"]

    def test_fails_against_walks_at_a_wrong_alpha(self, monkeypatch):
        def wrong_alpha(params, *args):
            return walk.limiting_endpoint_pmf(ModelParams(params.theta, -0.3), *args)

        monkeypatch.setattr(experiments, "limiting_endpoint_pmf", wrong_alpha)
        rep = experiments.run_pinning(self.CONFIG)
        assert _failed(rep, "tail_mass_k") == [
            f"tail_mass_k{k}_walk_limit_N50" for k in self.DEPTHS]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fails_on_polymers_drawn_at_a_shifted_alpha(self, monkeypatch, seed):
        # the limit stays at alpha = -0.5 while the environments are drawn
        # at -0.3; p was 3e-6, 3e-8 and 1.5e-9 at seeds 0-2, where healthy
        # runs gave p >= 0.2
        shapes = environment.site_shapes

        def shifted(params, flavor, i, j):
            return shapes(ModelParams(params.theta, params.alpha + 0.2), flavor, i, j)

        monkeypatch.setattr(environment, "site_shapes", shifted)
        rep = experiments.run_pinning(
            ExperimentConfig(ModelParams(1.0, -0.5), (20,), 200, seed=seed))
        assert "tail_mass_k1_walk_limit_N20" in _failed(rep, "tail_mass_k")

    def test_deep_tails_stay_finite_at_strong_binding(self, monkeypatch, tmp_path):
        # at alpha = -0.9 the masses beyond k = 80 and 90 underflow to 0.0 in
        # linear space, where a median ordering failed on the ties and the
        # KS saw two samples of zeros; in log space every value is distinct
        seen = []

        def record(x, y):
            seen.append((np.asarray(x), np.asarray(y)))
            return ks_test(x, y)

        monkeypatch.setattr(experiments, "ks_test", record)
        argv = ["experiment", "pinning", "--alpha", "-0.9", "--sizes", "100",
                "--samples", "200", "--k-grid", "0,1,80,90", "--seed", "0",
                "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 0
        assert len(seen) == 4           # k = 1, 20 (deep), 80, 90
        for x, y in seen:
            for side in (x, y):
                assert np.isfinite(side).all()
                assert np.unique(side).size == side.size


class TestFluctMoments:
    """The driver's z tests of the stationary diagonal's exact mean and of
    the standard diagonal's variance 1, on synthetic Gaussian diagonals."""

    def run(self, monkeypatch, shift, scale):
        config = ExperimentConfig(ModelParams(1.0, -0.5), (50, 100), 1000, seed=2)
        c = experiments.constants(config.params)
        exact_offset = digamma(config.params.shape_boundary)
        gen = np.random.default_rng(7)
        # drawn size by size, the standard flavor before the stationary one
        draws = {(n, flavor): shift + scale * gen.standard_normal(config.samples)
                 for n in config.sizes for flavor in ("standard", "stationary")}

        def synthetic(config, flavor, sizes):
            out = []
            for n in sizes:
                diag = c.free_energy_rate * n + np.sqrt(c.clt_variance * n) * draws[n, flavor]
                if flavor == "stationary":
                    diag += exact_offset
                out.append(diag[:, None] - np.arange(n)[None, :])
            return out

        monkeypatch.setattr(experiments, "_profiles", synthetic)
        rep = experiments.run_gaussian_fluct(config)
        names = [c.name for c in rep.checks
                 if c.name.startswith(("diag_mean_exact", "diag_variance_one"))]
        assert names == ["diag_mean_exact_N50", "diag_variance_one_N50",
                         "diag_mean_exact_N100", "diag_variance_one_N100"]
        return rep

    def test_standard_normal_passes(self, monkeypatch):
        rep = self.run(monkeypatch, 0.0, 1.0)
        assert not _failed(rep, "diag_mean_exact") + _failed(rep, "diag_variance_one")

    def test_shifted_normal_fails_the_mean(self, monkeypatch):
        rep = self.run(monkeypatch, 0.3, 1.0)
        assert _failed(rep, "diag_mean_exact") == ["diag_mean_exact_N50",
                                                    "diag_mean_exact_N100"]
        assert not _failed(rep, "diag_variance_one")

    def test_rescaled_normal_fails_the_variance(self, monkeypatch):
        rep = self.run(monkeypatch, 0.0, 1.3)
        assert _failed(rep, "diag_variance_one") == ["diag_variance_one_N50",
                                                      "diag_variance_one_N100"]
        assert not _failed(rep, "diag_mean_exact")


class TestFluctExactMean:
    """E[log Z_stat(N, N)] = rate N + psi(theta - alpha) holds at every N on
    the stationary flavor; the standard flavor's O(1) offset fails it.  At
    N = 5 the offset is about -0.57, which 1000 samples put near z = -3.7
    (failing on 14 of seeds 0-19); 4000 put it near z = -7.4 (20 of 20)."""

    CONFIG = ExperimentConfig(ModelParams(1.0, -0.5), (5,), 4000)

    def test_passes_on_the_stationary_flavor(self):
        rep = experiments.run_gaussian_fluct(self.CONFIG)
        assert [c.name for c in rep.checks if c.name.startswith("diag_mean_exact")] \
            == ["diag_mean_exact_N5"]
        assert not _failed(rep, "diag_mean_exact")
        offset = {r[1]: r[2] for r in rep.rows if r[1].startswith("coupled_offset")}
        assert offset["coupled_offset_mean"] < 0.0 < offset["coupled_offset_sd"]

    def test_fails_on_the_standard_flavor(self, monkeypatch):
        profiles = experiments._profiles

        def standard_only(config, flavor, sizes):
            return profiles(config, "standard", sizes)

        monkeypatch.setattr(experiments, "_profiles", standard_only)
        rep = experiments.run_gaussian_fluct(self.CONFIG)
        assert _failed(rep, "diag_mean_exact") == ["diag_mean_exact_N5"]
        offset = {r[1]: r[2] for r in rep.rows if r[1].startswith("coupled_offset")}
        assert offset == {"coupled_offset_mean": 0.0, "coupled_offset_sd": 0.0}


class TestFluctPointToLineMean:
    """On the stationary flavor log sum_{r>=1} Z_stat(N+r, N-r) / Z_stat(N, N)
    has the law of log sum_{1<=r<N} e^{-S_r} at every N, and
    `ptl_mean_exact_N{n}` z-tests its mean against independent walks.  With
    column 1 drawn at theta instead of theta - alpha the increments are no
    longer walk increments, and with the walks drawn at another alpha the
    walk side is wrong while the diagonal mean is not: at N = 5 the check
    fails in both."""

    CONFIG = ExperimentConfig(ModelParams(1.0, -0.5), (5,), 2000)

    def test_passes_on_the_stationary_flavor(self):
        rep = experiments.run_gaussian_fluct(self.CONFIG)
        assert [c.name for c in rep.checks if c.name.startswith("ptl_mean")] \
            == ["ptl_mean_exact_N5"]
        assert not _failed(rep, "ptl_mean_exact")

    def test_fails_with_column_1_drawn_at_theta(self, monkeypatch):
        shapes = environment.site_shapes

        def column1_at_theta(params, flavor, i, j):
            s = shapes(params, flavor, i, j)
            if flavor == "stationary":
                s[(np.asarray(j) == 1) & (np.asarray(i) >= 2)] = params.theta
            return s

        monkeypatch.setattr(environment, "site_shapes", column1_at_theta)
        rep = experiments.run_gaussian_fluct(self.CONFIG)
        assert _failed(rep, "ptl_mean_exact") == ["ptl_mean_exact_N5"]

    def test_fails_with_the_walks_drawn_at_another_alpha(self, monkeypatch):
        draw = experiments.walk_increment_matrix
        monkeypatch.setattr(experiments, "walk_increment_matrix", lambda params, *args:
                            draw(ModelParams(params.theta, params.alpha - 0.1), *args))
        rep = experiments.run_gaussian_fluct(self.CONFIG)
        assert _failed(rep, "ptl_mean_exact") == ["ptl_mean_exact_N5"]
        assert not _failed(rep, "diag_mean_exact")


class TestQuenchedWalkLimit:
    """`run_quenched_limit` KS-tests the endpoint pmf at r = 1..r_max against
    the walk's e^{-S_r} / Q, and at r = 0 the mass beyond 0 against
    (Q - 1) / Q, and checks the walk side: every series is certified and
    (Q - 1) / Q follows its exact Beta law."""

    CONFIG = ExperimentConfig(ModelParams(1.0, -0.5), (20,), 200, seed=1,
                              walk_samples=2000)

    def test_passes_against_the_walk_at_the_right_alpha(self):
        rep = experiments.run_quenched_limit(self.CONFIG)
        assert [c.name for c in rep.checks] == (
            ["walk_series_certified"] + [f"marginal_ks_r{r}" for r in range(6)]
            + ["q_beta_law"])
        assert rep.passed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fails_on_walks_drawn_at_a_shifted_alpha(self, monkeypatch, seed):
        # the environments stay at alpha = -0.5 while the walks are drawn at
        # -0.4
        def shifted(params, *args):
            return walk.limiting_endpoint_pmf(
                ModelParams(params.theta, params.alpha + 0.1), *args)

        monkeypatch.setattr(experiments, "limiting_endpoint_pmf", shifted)
        rep = experiments.run_quenched_limit(replace(self.CONFIG, seed=seed))
        assert _failed(rep, "q_beta_law") == ["q_beta_law"]
        assert not _failed(rep, "walk_series_certified")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fails_on_polymers_drawn_at_a_shifted_alpha(self, monkeypatch, seed):
        # the walks stay at alpha = -0.5 while the environments are drawn at
        # -0.3; marginal_ks_r0 gave p <= 6e-11 at seeds 0-2, where healthy
        # runs gave p >= 0.03 at every r
        shapes = environment.site_shapes

        def shifted(params, flavor, i, j):
            return shapes(ModelParams(params.theta, params.alpha + 0.2), flavor, i, j)

        monkeypatch.setattr(environment, "site_shapes", shifted)
        rep = experiments.run_quenched_limit(replace(self.CONFIG, seed=seed))
        assert "marginal_ks_r0" in _failed(rep, "marginal_ks")
        assert not _failed(rep, "walk_series_certified") + _failed(rep, "q_beta_law")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_r0_passes_at_strong_binding(self, seed):
        # at alpha = -0.99, pmf[0] = exp(log Z_0 - log Z) rounds to 1.0 more
        # often than 1/Q does; KS-testing pmf[0] itself against 1/Q gave p
        # <= 5.2e-5 at seeds 0-2, the masses beyond 0 give p >= 0.33
        rep = experiments.run_quenched_limit(ExperimentConfig(
            ModelParams(1.0, -0.99), (30,), 2000, seed=seed, walk_samples=4000))
        assert not _failed(rep, "marginal_ks_r0")


class TestStationaryIndependence:
    """The stationary flavor's increments are i.i.d. (the Burke property);
    `independence_r{r}_r{r+1}_N{n}` KS-tests increment r + 1 between the
    samples whose increment r lies above its median and the rest."""

    CONFIG = ExperimentConfig(ModelParams(1.0, -0.5), (4,), 5000, flavor="stationary")

    def synthetic(self, monkeypatch, coupling):
        # increment r + 1 leans on increment r by `coupling`
        gen = np.random.default_rng(11)

        def profiles(config, flavor, sizes):
            out = []
            for n in sizes:
                inc = gen.standard_normal((config.samples, n - 1))
                for r in range(1, n - 1):
                    inc[:, r] += coupling * inc[:, r - 1]
                out.append(np.hstack([np.zeros((config.samples, 1)),
                                      -np.cumsum(inc, axis=1)]))
            return out

        monkeypatch.setattr(experiments, "_profiles", profiles)
        return experiments.run_walk_attractor(replace(self.CONFIG, samples=2000))

    def test_independent_synthetic_increments_pass(self, monkeypatch):
        rep = self.synthetic(monkeypatch, 0.0)
        assert [c.name for c in rep.checks if c.name.startswith("independence")] == [
            "independence_r1_r2_N4", "independence_r2_r3_N4"]
        assert not _failed(rep, "independence")

    def test_dependent_synthetic_increments_fail(self, monkeypatch):
        rep = self.synthetic(monkeypatch, 0.3)
        assert _failed(rep, "independence") == ["independence_r1_r2_N4",
                                                "independence_r2_r3_N4"]

    def test_passes_on_the_stationary_flavor(self):
        rep = experiments.run_walk_attractor(self.CONFIG)
        assert [c.name for c in rep.checks] == (
            [f"increment_ks_r{r}_N4" for r in (1, 2, 3)]
            + ["independence_r1_r2_N4", "independence_r2_r3_N4"])
        assert rep.passed

    def test_fails_with_column_1_drawn_at_the_bulk_shape(self, monkeypatch):
        # column 1 at 2 theta instead of theta - alpha breaks the Burke
        # property; at seeds 0-2 this check gave p <= 1.6e-4, where the
        # healthy flavor gave p >= 0.17
        shapes = environment.site_shapes

        def bulk_column(params, flavor, i, j):
            return shapes(params, "standard", i, j)

        monkeypatch.setattr(environment, "site_shapes", bulk_column)
        rep = experiments.run_walk_attractor(self.CONFIG)
        assert "independence_r2_r3_N4" in _failed(rep, "independence")


def test_walk_standard_flavor_runs_the_per_size_ks_checks():
    rep = experiments.run_walk_attractor(CONFIG)
    names = [c.name for c in rep.checks]
    assert names == [f"increment_ks_r{r}_N{n}" for n in CONFIG.sizes
                     for r in range(1, CONFIG.r_max + 1)]


def test_pinning_fluct_walk_draw_no_bootstrap(monkeypatch):
    # no driver draws a bootstrap interval; `experiments.bootstrap_ci` is
    # imported only for the benchmark's wrapper
    def refuse(*args, **kwargs):
        raise AssertionError("bootstrap interval drawn")

    monkeypatch.setattr(experiments, "bootstrap_ci", refuse)
    for driver in (experiments.run_pinning, experiments.run_walk_attractor,
                   experiments.run_gaussian_fluct, experiments.run_lln_profile):
        assert driver(CONFIG).checks
    assert experiments.run_quenched_limit(replace(CONFIG, sizes=CONFIG.sizes[-1:])).checks
