"""Experiment drivers: rows do not depend on threads or stream blocking."""
import inspect
from dataclasses import replace

import numpy as np
import pytest

from hslg_lab import experiments, walk
from hslg_lab.experiments import R0_LANE, STREAM_BLOCK, ExperimentConfig
from hslg_lab.polymer import batch_final_profiles
from hslg_lab.rng import LANE_BOOTSTRAP, LANE_CHAIN
from hslg_lab.special import ModelParams

CONFIG = ExperimentConfig(ModelParams(1.0, -0.5), (6, 8), 300, seed=3,
                          walk_samples=500)


@pytest.mark.parametrize("driver", [experiments.run_pinning,
                                    experiments.run_walk_attractor,
                                    experiments.run_quenched_limit])
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
    blocked = experiments._profiles(CONFIG, 8, "standard")
    whole = batch_final_profiles(CONFIG.params, 8, "standard", CONFIG.seed,
                                 np.arange(CONFIG.samples, dtype=np.uint64))
    np.testing.assert_array_equal(blocked, whole)


def test_walk_lanes_stay_below_the_reserved_r0_lane(monkeypatch):
    # the quenched driver draws each walk's boundary weight at R0_LANE of
    # the walk's own stream, inside the chain namespace; a walk drawn to
    # the cap of its certificate must stay below it
    defaults = inspect.signature(walk.limiting_endpoint_pmf).parameters
    cap, window = defaults["cap"].default, defaults["window"].default
    assert LANE_CHAIN < LANE_CHAIN + 2 * (cap + window) + 1 < R0_LANE
    assert R0_LANE == (1 << 49) - 1 < LANE_BOOTSTRAP

    seen = []
    keys = walk.lane_keys

    def record(seed, stream, lanes):
        seen.append(int(np.max(lanes)))
        return keys(seed, stream, lanes)

    monkeypatch.setattr(walk, "lane_keys", record)
    out = walk.limiting_endpoint_pmf(CONFIG.params, 0, [0, 1], 3, 1e-300,
                                     window=8, cap=50)
    assert not out.converged.any()
    assert max(seen) == LANE_CHAIN + 2 * (50 + 8) - 1
