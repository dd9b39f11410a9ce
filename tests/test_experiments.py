"""Experiment drivers: rows do not depend on threads or stream blocking."""
from dataclasses import replace

import numpy as np
import pytest

from hslg_lab import experiments
from hslg_lab.experiments import STREAM_BLOCK, ExperimentConfig
from hslg_lab.polymer import batch_final_profiles
from hslg_lab.special import ModelParams

CONFIG = ExperimentConfig(ModelParams(1.0, -0.5), (6, 8), 300, seed=3)


@pytest.mark.parametrize("driver", [experiments.run_pinning,
                                    experiments.run_walk_attractor])
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
