"""Experiment drivers: rows do not depend on threads or stream blocking."""
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import digamma

from hslg_lab import cli, environment, experiments, walk
from hslg_lab.experiments import STREAM_BLOCK, ExperimentConfig
from hslg_lab.polymer import batch_final_profiles
from hslg_lab.rng import LANE_BOOTSTRAP, LANE_BOUNDARY, LANE_CHAIN
from hslg_lab.special import ModelParams
from hslg_lab.stats import ks_test

CONFIG = ExperimentConfig(ModelParams(1.0, -0.5), (6, 8), 300, seed=3,
                          walk_samples=500, small_sizes=(3, 5), small_samples=8)


@pytest.mark.parametrize("driver", [experiments.run_pinning,
                                    experiments.run_walk_attractor,
                                    experiments.run_quenched_limit,
                                    experiments.run_gaussian_fluct,
                                    experiments.run_lln_profile])
def test_rows_identical_across_threads(driver):
    # 300 samples make two stream blocks (256 + 44), so with 2 threads the
    # blocks run concurrently and are stacked back in order
    assert CONFIG.samples > STREAM_BLOCK
    one = driver(CONFIG)
    two = driver(replace(CONFIG, threads=2))
    assert one.rows and one.rows == two.rows
    assert [(c.name, c.passed, c.detail) for c in one.checks] == \
           [(c.name, c.passed, c.detail) for c in two.checks]


def test_profiles_do_not_depend_on_stream_blocks():
    blocked = experiments._profiles(batch_final_profiles, CONFIG, 8, "standard")
    whole = batch_final_profiles(CONFIG.params, 8, "standard", CONFIG.seed,
                                 np.arange(CONFIG.samples, dtype=np.uint64))
    np.testing.assert_array_equal(blocked, whole)


def test_walk_lanes_stay_below_the_reserved_r0_lane(monkeypatch):
    # the quenched driver draws each walk's boundary weight at LANE_BOUNDARY
    # of the walk's own stream, the top of the chain namespace; a walk drawn
    # to the cap of its certificate must stay below it
    # the window is at most the cap, so a walk draws at most 2 CAP steps
    assert LANE_CHAIN < LANE_CHAIN + 2 * (walk.CAP + walk.CAP) + 1 < LANE_BOUNDARY
    assert LANE_BOUNDARY == (1 << 49) - 1 < LANE_BOOTSTRAP

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
    """Every check of `run_pinning` is a log-space tail KS against the walk
    limit, at each k > 0 of `k_grid` and at ceil(deep_m sqrt(N)) (15 at
    N = 50)."""

    CONFIG = ExperimentConfig(ModelParams(1.0, -0.5), (50,), 1000, seed=1)
    DEPTHS = (1, 2, 4, 10, 15)

    def test_passes_against_the_walk_at_the_right_alpha(self):
        rep = experiments.run_pinning(self.CONFIG)
        assert [c.name for c in rep.checks] == [
            f"tail_mass_k{k}_walk_limit_N50" for k in self.DEPTHS]
        assert not _failed(rep, "tail_mass_k")

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

        def synthetic(batch, config, n, flavor):
            x = shift + scale * gen.standard_normal(config.samples)
            diag = c.free_energy_rate * n + np.sqrt(c.clt_variance * n) * x
            if flavor == "stationary":
                diag += exact_offset
            return diag[:, None] - np.arange(n)[None, :]

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

        def standard_only(batch, config, n, flavor):
            return profiles(batch, config, n, "standard")

        monkeypatch.setattr(experiments, "_profiles", standard_only)
        rep = experiments.run_gaussian_fluct(self.CONFIG)
        assert _failed(rep, "diag_mean_exact") == ["diag_mean_exact_N5"]
        offset = {r[1]: r[2] for r in rep.rows if r[1].startswith("coupled_offset")}
        assert offset == {"coupled_offset_mean": 0.0, "coupled_offset_sd": 0.0}


def test_walk_standard_flavor_runs_the_per_size_ks_checks():
    rep = experiments.run_walk_attractor(CONFIG)
    names = [c.name for c in rep.checks]
    assert names == [f"increment_ks_r{r}_N{n}" for n in CONFIG.sizes
                     for r in range(1, CONFIG.r_max + 1)]


def test_pinning_fluct_walk_draw_no_bootstrap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bootstrap interval drawn")

    monkeypatch.setattr(experiments, "bootstrap_ci", refuse)
    for driver in (experiments.run_pinning, experiments.run_walk_attractor,
                   experiments.run_gaussian_fluct):
        assert driver(CONFIG).checks
