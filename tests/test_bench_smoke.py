"""The benchmark's correctness gate and traced replay, run on tiny inputs.

`bench/run.py` runs the gate and, with ``--trace 1``, the traced replay of
each workload's drivers.  Both reach into the library by name, so a library
change that breaks them should fail here rather than only in a benchmark
run.  The argvs are the workloads' own with their sizes cut down.
"""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import gate  # noqa: E402  (importable only once bench/ is on the path)
import run as bench_run  # noqa: E402
import traced  # noqa: E402

TINY = {"sizes": "10,20", "samples": "16", "walk-samples": "64",
        "small-sizes": "7,9,11", "small-samples": "2"}
ONE_SIZE = {"quenched": {"sizes": "20"}}    # quenched takes one size
PER_LAYER = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]


def _failed(probes):
    return [(p.name, p.detail) for p in probes if not p.ok]


def test_gate_passes_every_probe():
    assert _failed(gate.run_gate(0, (5,), 4, 7)) == []


@pytest.mark.parametrize("workload", sorted(bench_run.WORKLOADS))
def test_traced_replay_measures_every_layer(workload, tmp_path):
    actions = []
    for a in bench_run.WORKLOADS[workload].actions:
        tiny = TINY | ONE_SIZE.get(a.driver, {})
        actions.append((a.driver, bench_run.Action(
            a.driver, tuple((k, tiny.get(k, v)) for k, v in a.options)).argv(0)))
    run = traced.run_traced(actions, 0, 0.0, tmp_path)
    assert _failed(run.probes) == []
    assert [m for m in PER_LAYER if run.metrics.get(m) is None] == []
