"""Experiment drivers: rows do not depend on threads or stream blocking."""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import digamma

from hslg_lab import cli, environment, experiments, walk
from hslg_lab.experiments import ExperimentConfig
from hslg_lab.polymer import batch_final_profiles
from hslg_lab.rng import LANE_BOOTSTRAP, LANE_CHAIN, LANE_TAIL
from hslg_lab.special import ModelParams
from hslg_lab.stats import RESAMPLES, ks_test

CONFIG = ExperimentConfig(ModelParams(1.0, -0.5), (6, 8), 300, seed=3,
                          walk_samples=500, small_sizes=(3, 5), small_samples=8)
FINAL, BELOW = "batch_final_profiles", "batch_diag_avoiding_profiles"


@pytest.mark.parametrize("driver", [experiments.run_pinning,
                                    experiments.run_walk_attractor,
                                    experiments.run_quenched_limit,
                                    experiments.run_gaussian_fluct,
                                    experiments.run_lln_profile])
def test_rows_identical_across_threads(driver):
    # 2 threads make two stream blocks (150 + 150), which run concurrently
    # and are stacked back in order
    assert len(experiments._stream_blocks(replace(CONFIG, threads=2), CONFIG.samples,
                                          CONFIG.sizes[-1])) == 2
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


@pytest.mark.parametrize("samples, n, threads, blocks", [
    (1000, 100, 1, 1),          # walklaw's walk and quenched
    (1000, 200, 1, 2),          # the sweep workload: 500 + 500
    (200, 50, 1, 1),            # lln
    (1000, 100, 2, 2),
    (300, 8, 3, 3),
    (1001, 400, 1, 4),          # 250 + 250 + 250 + 251
    (9, 8, 16, 9),              # more threads than streams: no empty block
])
def test_stream_blocks_split_by_sites(samples, n, threads, blocks):
    config = replace(CONFIG, samples=samples, threads=threads, stream=7)
    got = experiments._stream_blocks(config, samples, n)
    assert len(got) == blocks == min(samples, max(
        threads, math.ceil(samples * n / experiments.BLOCK_SITES)))
    starts = [start for start, _ in got]
    counts = [cnt for _, cnt in got]
    # every stream once, in order, in contiguous blocks
    assert starts == [7 + sum(counts[:b]) for b in range(blocks)]
    assert sum(counts) == samples
    assert min(counts) >= 1 and max(counts) - min(counts) <= 1


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_profiles_do_not_depend_on_block_size(threads, monkeypatch):
    # 300 streams to size 8 take 2400 sites on the widest diagonal, so a
    # budget of 700 makes four blocks even at one thread
    sizes = (6, 8)
    whole = batch_final_profiles(CONFIG.params, 8, "standard", CONFIG.seed,
                                 np.arange(CONFIG.samples, dtype=np.uint64), sizes)
    monkeypatch.setattr(experiments, "BLOCK_SITES", 700)
    config = replace(CONFIG, threads=threads)
    assert len(experiments._stream_blocks(config, config.samples, 8)) == 4
    blocked = experiments._profiles(config, "standard", sizes)
    np.testing.assert_array_equal(np.hstack(blocked), whole)


class TestOneSweep:
    """Each driver sweeps each flavor once per stream block, to the largest
    size, and reads every size's profile off that sweep's diagonal 2N."""

    SIZES = (2, 3, 10, 17)
    STREAMS = np.arange(300, dtype=np.uint64)

    @pytest.mark.parametrize("flavor", environment.FLAVORS)
    @pytest.mark.parametrize("batch, short", [(batch_final_profiles, 0)])
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
        (experiments.run_lln_profile, "standard", {(FINAL, "standard")}),
    ])
    def test_one_call_per_stream_block_per_flavor(self, driver, flavor, swept,
                                                  monkeypatch):
        # counting wrappers at the module attributes, where the bench wraps
        # (BELOW too: no driver may call it)
        calls = []
        for name in (FINAL, BELOW):
            def counted(*args, name=name, fn=getattr(experiments, name), **kwargs):
                calls.append(((name, args[2]), args[1], int(args[4][0]), args[4].size))
                return fn(*args, **kwargs)
            monkeypatch.setattr(experiments, name, counted)
        # half the widest diagonal's sites per block: two stream blocks
        n = max(CONFIG.sizes)
        monkeypatch.setattr(experiments, "BLOCK_SITES", CONFIG.samples * n // 2)
        config = replace(CONFIG, flavor=flavor)
        driver(config)
        blocks = experiments._stream_blocks(config, config.samples, n)
        assert len(blocks) == 2
        assert {key for key, *_ in calls} == swept
        for key in swept:
            mine = [(size, start, cnt) for k, size, start, cnt in calls if k == key]
            assert mine == [(n, start, cnt) for start, cnt in blocks]
            assert sum(cnt * size ** 2 for size, _, cnt in mine) == config.samples * n ** 2


def test_walk_lanes_miss_the_bootstrap_and_site_lanes(monkeypatch):
    # increment k of a walk takes LANE_CHAIN + 2k and + 2k + 1, and its two
    # tail gammas LANE_TAIL and LANE_TAIL + 1; a walk of fewer than 2^47
    # steps stays below LANE_BOOTSTRAP, and a bootstrap over fewer than
    # 2^48 values stays below LANE_TAIL; the site codes of wedges of size
    # below 2^23 stay below LANE_CHAIN
    assert environment.site_code(2**24, 2**24) < LANE_CHAIN
    assert LANE_CHAIN + 2 * 2**47 <= LANE_BOOTSTRAP
    assert LANE_BOOTSTRAP + RESAMPLES * 2**48 <= LANE_TAIL < LANE_TAIL + 1 < 2**64

    seen = []
    keys = walk.lane_keys

    def record(seed, stream, lanes):
        seen.append(np.unique(lanes))
        return keys(seed, stream, lanes)

    monkeypatch.setattr(walk, "lane_keys", record)
    walk.limiting_endpoint_pmf(CONFIG.params, 0, [0, 1], 3)
    lanes = sorted(int(v) for v in np.concatenate(seen))
    assert lanes == [LANE_CHAIN + j for j in range(2 * 3)] + [LANE_TAIL, LANE_TAIL + 1]


# ---------------------------------------------------------------------------
# per-size checks against known limits

def _failed(report, prefix):
    return [c.name for c in report.checks
            if c.name.startswith(prefix) and not c.passed]


class TestPinningWalkLimit:
    """`run_pinning` KS-tests the log tail mass against the walk limit at
    each k > 0 of `k_grid` and at ceil(deep_m sqrt(N)) (15 at N = 50)."""

    CONFIG = ExperimentConfig(ModelParams(1.0, -0.5), (50,), 1000, seed=1)
    DEPTHS = (1, 2, 4, 10, 15)

    def test_passes_against_the_walk_at_the_right_alpha(self):
        rep = experiments.run_pinning(self.CONFIG)
        assert [c.name for c in rep.checks] == [
            f"tail_mass_k{k}_walk_limit_N50" for k in self.DEPTHS]
        assert rep.passed

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
        draw = experiments.limiting_endpoint_pmf
        monkeypatch.setattr(experiments, "limiting_endpoint_pmf", lambda params, *args:
                            draw(ModelParams(params.theta, params.alpha - 0.1), *args))
        rep = experiments.run_gaussian_fluct(self.CONFIG)
        assert _failed(rep, "ptl_mean_exact") == ["ptl_mean_exact_N5"]
        assert not _failed(rep, "diag_mean_exact")


class TestQuenchedWalkLimit:
    """`run_quenched_limit` KS-tests the endpoint pmf at r = 1..r_max against
    the walk's e^{-S_r} / Q, and at r = 0 the mass beyond 0 against
    (Q - 1) / Q, and checks the walk side: log q1, the logit of (Q - 1) / Q,
    follows the logit of its exact Beta law."""

    CONFIG = ExperimentConfig(ModelParams(1.0, -0.5), (20,), 200, seed=1,
                              walk_samples=2000)

    def test_passes_against_the_walk_at_the_right_alpha(self):
        rep = experiments.run_quenched_limit(self.CONFIG)
        assert [c.name for c in rep.checks] == (
            [f"marginal_ks_r{r}" for r in range(6)] + ["q_beta_law"])
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
        assert not _failed(rep, "q_beta_law")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_q_beta_law_passes_at_weak_binding(self, seed):
        # (Q - 1)/Q ~ Beta(0.95, 0.1) at alpha = -0.05 puts about 2.5% of its
        # mass within an ulp of 1, where it rounds to 1.0; KS-testing (Q - 1)/Q
        # itself read that rounding as a jump (p 1.2e-23 and 4.1e-24 at seeds
        # 0 and 1), while its logit log q1 does not
        rep = experiments.run_quenched_limit(ExperimentConfig(
            ModelParams(1.0, -0.05), (10,), 100, seed=seed, walk_samples=50_000))
        assert not _failed(rep, "q_beta_law")

    def test_r0_walk_values_do_not_round_at_weak_binding(self, monkeypatch):
        # at alpha = -0.05 the mass beyond 0, q1 / Q, rounds to 1.0 on 3.7%
        # of 50,000 walks (seed 0); marginal_ks_r0 compares log q1, which
        # keeps every walk's value apart
        compared = []
        ks_test = experiments.ks_test

        def spy(x, y):
            compared.append(y)
            return ks_test(x, y)

        monkeypatch.setattr(experiments, "ks_test", spy)
        experiments.run_quenched_limit(ExperimentConfig(
            ModelParams(1.0, -0.05), (10,), 100, seed=0, walk_samples=50_000))
        walk_side = compared[0]         # r = 0 is tested first
        assert walk_side.shape == (50_000,)
        assert np.unique(walk_side).size == walk_side.size

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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_walk_increment_ks_fails_on_polymers_drawn_at_a_shifted_alpha(monkeypatch, seed):
    # the increment law stays at alpha = -0.5 while the environments are
    # drawn at -0.3; at N = 20 with 1000 samples every increment_ks_r{r}
    # gave p <= 4.2e-16 at seeds 0-2, where healthy runs gave p >= 0.12
    shapes = environment.site_shapes

    def shifted(params, flavor, i, j):
        return shapes(ModelParams(params.theta, params.alpha + 0.2), flavor, i, j)

    monkeypatch.setattr(environment, "site_shapes", shifted)
    rep = experiments.run_walk_attractor(
        ExperimentConfig(ModelParams(1.0, -0.5), (20,), 1000, seed=seed))
    assert _failed(rep, "increment_ks") == [f"increment_ks_r{r}_N20" for r in range(1, 6)]


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
