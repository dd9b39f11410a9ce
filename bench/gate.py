"""Correctness gate: untimed probes that run once per benchmark invocation.

Each probe returns pass/fail with a one-line detail; a probe that raises
counts as failed, and the gate goes on to the next one.
"""

from __future__ import annotations

import contextlib
import io
import traceback
from dataclasses import dataclass

import numpy as np

from hslg_lab import cli
from hslg_lab.environment import generate_environment, symmetrize
from hslg_lab.multilayer import line_ensemble
from hslg_lab.polymer import PartitionTable, batch_final_profiles
from hslg_lab.special import ModelParams, k_star

# The batched and per-environment DPs run the same recurrence on weights
# that differ only by a log/exp round trip; their rounding grows with the
# magnitude of the profile, so the error is taken relative to its largest
# entry (an entry near zero would make a pointwise ratio meaningless).
PROFILE_RTOL = 1e-12
# Float mode accepts a determinant until it cancels below 1e-8 of the
# Hadamard bound, so each layer log is good to about 1e-8 and a curve
# value (a difference of two layer logs) to about 2e-8.
ENSEMBLE_ATOL = 1e-7


@dataclass(frozen=True)
class Probe:
    name: str
    ok: bool
    detail: str


def guarded(name: str, fn) -> Probe:
    """Run `fn() -> (ok, detail)`; an exception becomes a failed probe."""
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a finding, not the end of the gate
        return Probe(name, False, traceback.format_exception_only(exc)[-1].strip())
    return Probe(name, bool(ok), detail)


def _verify(action: str):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(["verify", action])
    lines = buf.getvalue().strip().splitlines()
    return code == 0, f"exit {code}: {lines[-1] if lines else '(no output)'}"


def _profiles_match(seed: int, sizes, samples: int):
    params = ModelParams(1.0, -0.5)
    streams = np.array(sorted({0, 1, samples - 1}), dtype=np.uint64)
    worst = 0.0
    for n in sizes:
        rows = batch_final_profiles(params, n, "standard", seed, streams)
        for row, stream in zip(rows, streams):
            env = generate_environment(params, n, "standard", seed, int(stream))
            ref = PartitionTable(env).final_profile()
            err = float(np.max(np.abs(row - ref)) / np.max(np.abs(ref)))
            worst = max(worst, err)
    return worst <= PROFILE_RTOL, (
        f"streams {streams.tolist()} at sizes {list(sizes)}: max error "
        f"{worst:.2e} of the profile scale (limit {PROFILE_RTOL:g})")


def _ensemble_modes(seed: int, order: int):
    params = ModelParams(1.0, -0.3)
    kmax = 2 * k_star(params)
    env = generate_environment(params, order + 1, "standard", seed, 0)
    senv = symmetrize(env)
    flt = line_ensemble(senv, kmax, order=order)
    exact = line_ensemble(senv, kmax, mode="exact", order=order)
    err = max(float(np.max(np.abs(a - b)))
              for a, b in zip(flt.curves, exact.curves))
    return err <= ENSEMBLE_ATOL, (
        f"alpha=-0.3 order {order}, {kmax} curves: max |float - exact| = "
        f"{err:.2e} (limit {ENSEMBLE_ATOL:g})")


def run_gate(seed: int, sweep_sizes, sweep_samples: int,
             ensemble_order: int) -> list[Probe]:
    probes = [guarded(f"verify_{a}", lambda a=a: _verify(a))
              for a in ("umap", "identity", "lgv", "sbd")]
    probes.append(guarded("batch_profiles_match_partition_table",
                          lambda: _profiles_match(seed, sweep_sizes, sweep_samples)))
    probes.append(guarded("line_ensemble_float_matches_exact",
                          lambda: _ensemble_modes(seed, ensemble_order)))
    return probes
