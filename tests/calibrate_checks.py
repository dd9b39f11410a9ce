"""False-failure rates of the experiment checks over many seeds.

Runs the pinning, walk, fluct and lln drivers at their reference configs
once per seed: the benchmark's sweep and walklaw configs for pinning and
walk (theta 1, alpha -0.5), sizes 50,100,200 with 1000 samples for fluct
(theta 1, alpha -0.5), and the benchmark's lattice config for lln (theta 1,
alpha -0.3, sizes 25,50 with 200 samples, small sizes 7,9,11 with 8
samples).  It prints for each check the seeds it failed on with their
p-values, and for each driver the seeds on which the CLI would exit 1.
Every check runs at the default significance 0.001, so on healthy code a
check should fail on about one seed in a thousand; one that fails on 2 or
more of 20 seeds is a defect of the check or of the code.  The lln checks
are trend checks with no p-value; their failed seeds are listed alone.

    PYTHONPATH=src python tests/calibrate_checks.py [--seeds 20] [--threads 2]
        [--json calibration.json]

The file name keeps pytest from collecting it.  A full run of 20 seeds
takes about 12 minutes on two cores.
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
    "walk": (experiments.run_walk_attractor, PARAMS, dict(sizes=(50, 100), samples=1000)),
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
