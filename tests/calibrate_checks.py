"""False-failure rates of the experiment checks over many seeds.

Runs the drivers at their reference configs once per seed, all at theta 1:
- pinning at the benchmark's sweep config (alpha -0.5, sizes 50,100,200,
  1000 samples), and at two points off it where tail checks failed healthy
  code before they ran in log space: weak binding (alpha -0.1, sizes
  100,200,400, 200 samples) and underflowing tails (alpha -0.9, size 100,
  200 samples, k grid 0,1,80,90);
- walk and quenched at the benchmark's walklaw config (alpha -0.5; walk at
  sizes 50,100 with 1000 samples, quenched at size 100 with 1000 samples
  and 50,000 walks);
- fluct at sizes 50,100,200 with 1000 samples (alpha -0.5);
- lln at the benchmark's lattice config (alpha -0.3, sizes 25,50 with 200
  samples, small sizes 7,9,11 with 8 samples).
It prints for each check the seeds it failed on with their p-values, and
for each config the seeds on which the CLI would exit 1.  Every check runs
at the default significance 0.001, so on healthy code a check should fail
on about one seed in a thousand; one that fails on 2 or more of 20 seeds
is a defect of the check or of the code.  The lln checks are trend checks
with no p-value; their failed seeds are listed alone.

    PYTHONPATH=src python tests/calibrate_checks.py [--seeds 20] [--threads 2]
        [--json calibration.json]

The file name keeps pytest from collecting it.  A full run of 20 seeds
takes about 20 minutes on two cores.
"""
from __future__ import annotations

import argparse
import json
import re
import time

from hslg_lab import experiments
from hslg_lab.experiments import ExperimentConfig
from hslg_lab.special import ModelParams

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
    "quenched": (experiments.run_quenched_limit, PARAMS,
                 dict(sizes=(100,), samples=1000, walk_samples=50_000)),
    "fluct": (experiments.run_gaussian_fluct, PARAMS,
              dict(sizes=(50, 100, 200), samples=1000)),
    "lln": (experiments.run_lln_profile, LATTICE,
            dict(sizes=(25, 50), samples=200, small_sizes=(7, 9, 11), small_samples=8)),
}
_P = re.compile(r"\bp=([0-9.eE+-]+)")


def calibrate(seeds: int, threads: int) -> dict:
    out = {}
    for name, (driver, params, kwargs) in DRIVERS.items():
        checks: dict[str, dict] = {}
        exit1 = []
        t0 = time.perf_counter()
        for seed in range(seeds):
            rep = driver(ExperimentConfig(params, seed=seed, threads=threads, **kwargs))
            for c in rep.checks:
                row = checks.setdefault(c.name, {"runs": 0, "failed_seeds": [],
                                                 "failed_p": [], "min_p": None})
                row["runs"] += 1
                m = _P.search(c.detail)
                p = float(m.group(1)) if m else None
                if p is not None and (row["min_p"] is None or p < row["min_p"]):
                    row["min_p"] = p
                if not c.passed:
                    row["failed_seeds"].append(seed)
                    row["failed_p"].append(p)
            if not rep.passed:
                exit1.append(seed)
        config = {k: v for k, v in rep.config.items() if k not in ("seed", "out")}
        out[name] = {"config": config,
                     "seeds": seeds, "exit1_seeds": exit1, "checks": checks,
                     "seconds": round(time.perf_counter() - t0, 1)}
    return out


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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--json", help="also write the table to this file")
    args = ap.parse_args()
    table = calibrate(args.seeds, args.threads)
    report(table)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
