"""False-failure rates of the experiment checks over many seeds, and their
power against mutants.

By default, runs the drivers at their reference configs once per seed, all
at theta 1:
- pinning at the benchmark's sweep config (alpha -0.5, sizes 50,100,200,
  1000 samples), and at two points off it where tail checks failed healthy
  code before they ran in log space: weak binding (alpha -0.1, sizes
  100,200,400, 200 samples) and underflowing tails (alpha -0.9, size 100,
  200 samples, k grid 0,1,80,90);
- walk and quenched at the benchmark's walklaw config (alpha -0.5; walk at
  sizes 50,100 with 1000 samples, quenched at size 100 with 1000 samples
  and 50,000 walks), walk's stationary flavor at the same sizes and
  samples, quenched at strong binding (alpha -0.9 and -0.99, otherwise
  the walklaw config), where 1/Q rounds to 1.0 on about 3% of walks at
  -0.9 and pmf[0] rounds to 1.0 on most environments at -0.99, and at weak
  binding (alpha -0.05, size 10, 100 samples, 50,000 walks), where
  (Q - 1)/Q rounds to 1.0 on about 2.5% of walks; at that size the polymer
  is far from its walk limit, so its `marginal_ks_r*` checks are expected
  to fail there, and only `q_beta_law` reads no polymer;
- fluct at sizes 50,100,200 with 1000 samples, at sizes 10,20 with 40
  samples, and at sizes 5,10 with 2000 samples (alpha -0.5); the last is
  large enough to show `diag_variance_one_N{n}` failing healthy code at
  small N, which 40 samples cannot;
- lln at the benchmark's lattice config (alpha -0.3, sizes 25,50 with 200
  samples, small sizes 7,9,11 with 8 samples);
- `verify gibbs` at its defaults, judged by its exit code; its one test is
  the KS of the worst site's PIT at significance / sites.
It prints for each check the seeds it failed on with their p-values, and
for each config the seeds on which the CLI would exit 1.  Every check runs
at the default significance 0.001, so on healthy code a check should fail
on about one seed in a thousand; one that fails on 2 or more of 20 seeds
is a defect of the check or of the code.  lln's one check, that the
top-curve average's margin is nonpositive, is a bound with no p-value; its
failed seeds are listed alone.  For fluct it also lists the seeds that the
fixed windows fluct once had would have failed, recomputed from its rows
(see `deleted_windows`).

--mutants instead draws the environments from a patched
`environment.site_shapes` while every limit stays at the nominal alpha:
- fluct at sizes 50,100,200 with 1000 samples, seeds 0-4, with alpha
  shifted by +-0.05 or only the diagonal shape shifted by +-0.05; it lists
  the seeds each check and each deleted window failed, and whether every
  window failure came with a failure of a remaining check;
- walk's stationary flavor at sizes 4 and 8 with 5000 samples, alpha -0.5
  and -0.2, seeds 0-2, with column 1 below the corner drawn at shape
  2 theta or theta instead of theta - alpha (the increments are then no
  longer independent), and healthy; it lists the independence p-values;
- fluct at sizes 5 and 10 with 2000 samples, alpha -0.5, seeds 0-2, with
  the same column-1 shapes, and with its walks drawn at alpha +-0.05; it
  lists the p-values of `ptl_mean_exact` and, beside them, of
  `diag_mean_exact`, which reads no walk.
It also draws the walks of quenched at its walklaw config with increments
at alpha +-0.02 and +-0.05, seeds 0-2, while the environments and every
limit keep the nominal alpha; it lists each check's failed seeds and
p-values.

    PYTHONPATH=src python tests/calibrate_checks.py [--seeds 20] [--threads 2]
        [--mutants] [--json calibration.json]

The file name keeps pytest from collecting it.  A full run of 20 seeds
takes about 15 minutes on two cores, and --mutants about 5 minutes.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import time

import numpy as np

from hslg_lab import cli, environment, experiments
from hslg_lab.experiments import ExperimentConfig
from hslg_lab.special import ModelParams
from hslg_lab.stats import SIGNIFICANCE

PARAMS = ModelParams(1.0, -0.5)
LATTICE = ModelParams(1.0, -0.3)
DRIVERS = {
    "pinning": (experiments.run_pinning, PARAMS,
                dict(sizes=(50, 100, 200), samples=1000)),
    "pinning_weak": (experiments.run_pinning, ModelParams(1.0, -0.1),
                     dict(sizes=(100, 200, 400), samples=200)),
    "pinning_underflow": (experiments.run_pinning, ModelParams(1.0, -0.9),
                          dict(sizes=(100,), samples=200, k_grid=(0, 1, 80, 90))),
    "walk": (experiments.run_walk_attractor, PARAMS, dict(sizes=(50, 100), samples=1000)),
    "walk_stationary": (experiments.run_walk_attractor, PARAMS,
                        dict(sizes=(50, 100), samples=1000, flavor="stationary")),
    "quenched": (experiments.run_quenched_limit, PARAMS,
                 dict(sizes=(100,), samples=1000, walk_samples=50_000)),
    "quenched_strong": (experiments.run_quenched_limit, ModelParams(1.0, -0.9),
                        dict(sizes=(100,), samples=1000, walk_samples=50_000)),
    "quenched_strongest": (experiments.run_quenched_limit, ModelParams(1.0, -0.99),
                           dict(sizes=(100,), samples=1000, walk_samples=50_000)),
    "quenched_weak": (experiments.run_quenched_limit, ModelParams(1.0, -0.05),
                      dict(sizes=(10,), samples=100, walk_samples=50_000)),
    "fluct": (experiments.run_gaussian_fluct, PARAMS,
              dict(sizes=(50, 100, 200), samples=1000)),
    "fluct_small": (experiments.run_gaussian_fluct, PARAMS,
                    dict(sizes=(10, 20), samples=40)),
    "fluct_small_n": (experiments.run_gaussian_fluct, PARAMS,
                      dict(sizes=(5, 10), samples=2000)),
    "lln": (experiments.run_lln_profile, LATTICE,
            dict(sizes=(25, 50), samples=200, small_sizes=(7, 9, 11), small_samples=8)),
}
_P = re.compile(r"\bp\s?=\s?([0-9.eE+-]+)")


def _p(detail: str) -> float | None:
    m = _P.search(detail)
    return float(m.group(1)) if m else None


def _tally(table: dict, name: str, passed: bool, p: float | None, seed: int) -> None:
    row = table.setdefault(name, {"runs": 0, "failed_seeds": [], "failed_p": [],
                                  "min_p": None})
    row["runs"] += 1
    if p is not None and (row["min_p"] is None or p < row["min_p"]):
        row["min_p"] = p
    if not passed:
        row["failed_seeds"].append(seed)
        row["failed_p"].append(p)


def deleted_windows(rep) -> dict[str, bool]:
    """Verdicts of the fixed windows fluct checked at its largest size until
    they were deleted, recomputed from its rows: |mean| <= 0.3,
    0.7 <= variance <= 1.3 and off-diagonal correlation > 0.9."""
    n = rep.config["sizes"][-1]
    row = {stat: v for size, stat, v in rep.rows if size == n}
    return {"diag_mean_window": abs(row["diag_mean"]) <= 0.3,
            "diag_variance_window": 0.7 <= row["diag_variance"] <= 1.3,
            "offdiag_corr": row["offdiag_corr"] > 0.9}


def calibrate(seeds: int, threads: int) -> dict:
    out = {}
    for name, (driver, params, kwargs) in DRIVERS.items():
        checks: dict[str, dict] = {}
        windows: dict[str, dict] = {}
        exit1 = []
        t0 = time.perf_counter()
        for seed in range(seeds):
            rep = driver(ExperimentConfig(params, seed=seed, threads=threads, **kwargs))
            for c in rep.checks:
                _tally(checks, c.name, c.passed, _p(c.detail), seed)
            if driver is experiments.run_gaussian_fluct:
                for w, passed in deleted_windows(rep).items():
                    _tally(windows, w, passed, None, seed)
            if not rep.passed:
                exit1.append(seed)
        config = {k: v for k, v in rep.config.items() if k not in ("seed", "out")}
        out[name] = {"config": config,
                     "seeds": seeds, "exit1_seeds": exit1, "checks": checks,
                     "seconds": round(time.perf_counter() - t0, 1)}
        if windows:
            out[name]["deleted_windows"] = windows
    out["verify_gibbs"] = calibrate_gibbs(seeds)
    return out


def calibrate_gibbs(seeds: int) -> dict:
    """`verify gibbs` at its defaults, one CLI run per seed."""
    checks: dict[str, dict] = {}
    exit1 = []
    t0 = time.perf_counter()
    for seed in range(seeds):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(["verify", "gibbs", "--seed", str(seed)])
        worst = next(line for line in buf.getvalue().splitlines()
                     if line.startswith("worst site"))
        _tally(checks, "worst_site_pit_ks", status == 0, _p(worst), seed)
        if status != 0:
            exit1.append(seed)
    return {"config": {"action": "verify gibbs", "defaults": True}, "seeds": seeds,
            "exit1_seeds": exit1, "checks": checks,
            "seconds": round(time.perf_counter() - t0, 1)}


def report(table: dict) -> None:
    for name, d in table.items():
        print(f"{name}: exit 1 on {len(d['exit1_seeds'])}/{d['seeds']} seeds "
              f"{d['exit1_seeds']} ({d['seconds']} s)")
        for check, row in d["checks"].items():
            fails = len(row["failed_seeds"])
            flag = "  DEFECT" if fails >= 2 else ""
            min_p = "-" if row["min_p"] is None else f"{row['min_p']:.3g}"
            extra = "".join(f" seed {s}" + ("" if p is None else f" p={p}")
                            for s, p in zip(row["failed_seeds"], row["failed_p"]))
            print(f"  {check:34s} failed {fails}/{row['runs']}  min p {min_p}"
                  f"{extra}{flag}")
        for window, row in d.get("deleted_windows", {}).items():
            print(f"  deleted {window:26s} would fail {len(row['failed_seeds'])}"
                  f"/{row['runs']} {row['failed_seeds']}")


# ---------------------------------------------------------------------------
# power against mutants

FLUCT_MUTANT_SEEDS = 5
INDEPENDENCE_SEEDS = 3
WALK_SHIFTS = (-0.05, -0.02, 0.02, 0.05)
WALK_SEEDS = 3


@contextlib.contextmanager
def drawn_with(mutant):
    """Environments draw their shapes from mutant(site_shapes, params, flavor,
    i, j) inside the block; the drivers' limits keep the nominal params."""
    real = environment.site_shapes
    environment.site_shapes = lambda params, flavor, i, j: mutant(real, params,
                                                                  flavor, i, j)
    try:
        yield
    finally:
        environment.site_shapes = real


@contextlib.contextmanager
def walks_drawn_at(d):
    """The drivers' walks draw their increments at alpha + d inside the
    block; the environments and every limit keep the nominal params."""
    real = experiments.limiting_endpoint_pmf
    experiments.limiting_endpoint_pmf = lambda params, *args: real(
        ModelParams(params.theta, params.alpha + d), *args)
    try:
        yield
    finally:
        experiments.limiting_endpoint_pmf = real


def _alpha_shift(d):
    return lambda real, p, flavor, i, j: real(ModelParams(p.theta, p.alpha + d),
                                              flavor, i, j)


def _diag_shift(d):
    def mutant(real, p, flavor, i, j):
        s = real(p, flavor, i, j)
        s[np.asarray(i) == np.asarray(j)] += d
        return s
    return mutant


def _column1_shape(shape):
    def mutant(real, p, flavor, i, j):
        s = real(p, flavor, i, j)
        if flavor == "stationary":
            s[(np.asarray(j) == 1) & (np.asarray(i) >= 2)] = shape(p)
        return s
    return mutant


FLUCT_MUTANTS = {"alpha+0.05": _alpha_shift(0.05), "alpha-0.05": _alpha_shift(-0.05),
                 "diag_shape+0.05": _diag_shift(0.05),
                 "diag_shape-0.05": _diag_shift(-0.05)}
COLUMN1_SHAPES = {"2theta": lambda p: 2.0 * p.theta, "theta": lambda p: p.theta,
                  "healthy": lambda p: p.theta - p.alpha}


def ptl_power(threads: int) -> dict:
    """fluct at sizes 5 and 10 with column 1 drawn at each of
    `COLUMN1_SHAPES`, and with the walks drawn at alpha +-0.05: the p-values
    of `ptl_mean_exact` and of `diag_mean_exact` over seeds."""
    cases = {f"column1_{col}": lambda s=shape: drawn_with(_column1_shape(s))
             for col, shape in COLUMN1_SHAPES.items()}
    cases.update({f"walks_alpha{d:+g}": lambda d=d: walks_drawn_at(d)
                  for d in (-0.05, 0.05)})
    out = {}
    for case, mutated in cases.items():
        pvals: dict[str, list] = {}
        for seed in range(INDEPENDENCE_SEEDS):
            with mutated():
                rep = experiments.run_gaussian_fluct(ExperimentConfig(
                    PARAMS, (5, 10), 2000, seed=seed, threads=threads))
            for c in rep.checks:
                if c.name.startswith(("ptl_mean_exact", "diag_mean_exact")):
                    pvals.setdefault(c.name, []).append(_p(c.detail))
        out[case] = pvals
    return out


def mutant_power(threads: int) -> dict:
    fluct = {}
    for name, mutant in FLUCT_MUTANTS.items():
        checks: dict[str, list] = {}
        windows: dict[str, list] = {}
        unmatched = []
        for seed in range(FLUCT_MUTANT_SEEDS):
            with drawn_with(mutant):
                rep = experiments.run_gaussian_fluct(ExperimentConfig(
                    PARAMS, (50, 100, 200), 1000, seed=seed, threads=threads))
            for c in rep.checks:
                checks.setdefault(c.name, [])
                if not c.passed:
                    checks[c.name].append(seed)
            for w, passed in deleted_windows(rep).items():
                windows.setdefault(w, [])
                if not passed:
                    windows[w].append(seed)
                    if rep.passed:
                        unmatched.append((w, seed))
        fluct[name] = {"checks_failed_seeds": checks, "windows_failed_seeds": windows,
                       "window_failures_without_a_check_failure": unmatched}
    independence = {}
    for col, shape in COLUMN1_SHAPES.items():
        for alpha in (-0.5, -0.2):
            for n in (4, 8):
                pvals: dict[str, list] = {}
                for seed in range(INDEPENDENCE_SEEDS):
                    with drawn_with(_column1_shape(shape)):
                        rep = experiments.run_walk_attractor(ExperimentConfig(
                            ModelParams(1.0, alpha), (n,), 5000, seed=seed,
                            flavor="stationary", threads=threads))
                    for c in rep.checks:
                        if c.name.startswith("independence"):
                            pvals.setdefault(c.name, []).append(_p(c.detail))
                independence[f"column1_{col}_alpha{alpha}_N{n}"] = pvals
    return {"seeds": {"fluct": list(range(FLUCT_MUTANT_SEEDS)),
                      "independence": list(range(INDEPENDENCE_SEEDS)),
                      "ptl_mean_exact": list(range(INDEPENDENCE_SEEDS)),
                      "walk_side": list(range(WALK_SEEDS))},
            "significance": SIGNIFICANCE,
            "fluct": fluct, "independence": independence,
            "ptl_mean_exact": ptl_power(threads),
            "walk_side": walk_side_power(threads)}


def walk_side_power(threads: int) -> dict:
    """quenched at its walklaw config with the walks drawn at alpha + d, for
    each d of `WALK_SHIFTS`: each check's failed seeds and p-values."""
    driver, params, kwargs = DRIVERS["quenched"]
    out = {}
    for d in WALK_SHIFTS:
        checks: dict[str, dict] = {}
        for seed in range(WALK_SEEDS):
            with walks_drawn_at(d):
                rep = driver(ExperimentConfig(params, seed=seed, threads=threads,
                                              **kwargs))
            for c in rep.checks:
                row = checks.setdefault(c.name, {"failed_seeds": [], "p": []})
                row["p"].append(_p(c.detail))
                if not c.passed:
                    row["failed_seeds"].append(seed)
        out[f"walks_alpha{d:+g}"] = checks
    return out


def report_mutants(table: dict) -> None:
    sig = table["significance"]
    for name, d in table["fluct"].items():
        print(f"fluct {name}:")
        for kind in ("checks_failed_seeds", "windows_failed_seeds"):
            for check, seeds in d[kind].items():
                label = "deleted " + check if kind.startswith("windows") else check
                print(f"  {label:34s} failed {len(seeds)} {seeds}")
        print(f"  window failures with no check failing: "
              f"{d['window_failures_without_a_check_failure']}")
    failed = {}
    for case, pvals in table["independence"].items():
        col = case.split("_")[1]
        for check, ps in pvals.items():
            print(f"{case:34s} {check:24s} p " + " ".join(f"{p:.3g}" for p in ps))
            failed[col] = failed.get(col, 0) + sum(p <= sig for p in ps)
    print("independence cases failed at", sig, failed)
    for case, pvals in table["ptl_mean_exact"].items():
        for check, ps in pvals.items():
            print(f"fluct {case:18s} {check:24s} p " + " ".join(f"{p:.3g}" for p in ps))
    for case, checks in table["walk_side"].items():
        for check, row in checks.items():
            ps = " ".join("-" if p is None else f"{p:.3g}" for p in row["p"])
            print(f"quenched {case:18s} {check:24s} failed {row['failed_seeds']} p {ps}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--mutants", action="store_true",
                    help="measure power against the mutant grid instead")
    ap.add_argument("--json", help="also write the table to this file")
    args = ap.parse_args()
    if args.mutants:
        table = mutant_power(args.threads)
        report_mutants(table)
    else:
        table = calibrate(args.seeds, args.threads)
        report(table)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
