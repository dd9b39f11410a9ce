"""Benchmark of the hslg-lab experiment drivers, run through the CLI.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

Workloads, all at theta = 1 and --threads 1 (one process carries the load):

    sweep    experiment pinning at sizes 50,100,200: the batched float DP
             over many environments, dominated by the gamma sampler; no
             walk and no multilayer work
    walklaw  experiment walk, then experiment quenched: the gamma sampler
             in 10k x 400 walk blocks (half the draws at shape 0.5, the
             boosted branch), the quadrature CDF table, the walk-sum matrix
    lattice  experiment lln at alpha = -0.3: six-curve line ensembles at
             orders 7, 9 and 11 with exact Fraction determinant fallbacks

--trace 0 runs the workload's CLI actions as fresh child processes, one at
a time, repeating the whole workload until --seconds have passed, then
launches the CLI a few more times to time its set-up, and prints the
end-to-end metrics.  --trace 1 replays the same driver calls in this
process with a span around every call into a layer and prints the
per-layer metrics (see traced.py).  Both modes run the correctness gate
(gate.py) first.  The metric names and units come from BENCHMARK.json.

Everything above the last line of standard output is the run record; the
last line is the JSON result.  Scratch files go to .bench_out/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_LAUNCHES = 5          # extra CLI launches that only time the import

# Child processes report when `import hslg_lab.cli` returned through a pipe
# (CLOCK_MONOTONIC is shared across processes), then run the CLI exactly as
# the `hslg-lab` entry point does.  With no CLI arguments they stop there.
CHILD = """\
import os, sys, time
import hslg_lab.cli
fd = int(sys.argv[1])
os.write(fd, repr(time.monotonic()).encode())
os.close(fd)
if len(sys.argv) > 2:
    sys.exit(hslg_lab.cli.main(sys.argv[2:]))
"""


@dataclass(frozen=True)
class Action:
    driver: str
    options: tuple[tuple[str, str], ...]

    def argv(self, seed: int) -> list[str]:
        opts = (("theta", "1"),) + self.options + (("threads", "1"), ("seed", str(seed)))
        return ["experiment", self.driver] + [f for k, v in opts for f in (f"--{k}", v)]


@dataclass(frozen=True)
class Workload:
    actions: tuple[Action, ...]
    unit: str                 # input unit of the work rate
    work: int                 # input units per workload run


SWEEP_SIZES, SWEEP_SAMPLES = (50, 100, 200), 1000
WALK_SAMPLES = 50_000
SMALL_SIZES, SMALL_SAMPLES = (7, 9, 11), 8

# These are the configs whose costs QUOTED lists, so the figures compare
# directly.  One workload run takes 15-30 s on a 2-core machine, and a run
# of the benchmark measures one or two of them.
WORKLOADS = {
    "sweep": Workload(
        (Action("pinning", (("alpha", "-0.5"), ("sizes", "50,100,200"),
                            ("samples", str(SWEEP_SAMPLES)))),),
        "sites", SWEEP_SAMPLES * sum(n * n for n in SWEEP_SIZES)),
    "walklaw": Workload(
        (Action("walk", (("alpha", "-0.5"), ("sizes", "50,100"), ("samples", "1000"))),
         Action("quenched", (("alpha", "-0.5"), ("sizes", "100"), ("samples", "1000"),
                             ("walk-samples", str(WALK_SAMPLES))))),
        "walks", WALK_SAMPLES),
    "lattice": Workload(
        (Action("lln", (("alpha", "-0.3"), ("sizes", "25,50"), ("samples", "200"),
                        ("small-sizes", "7,9,11"),
                        ("small-samples", str(SMALL_SAMPLES)))),),
        "ensembles", SMALL_SAMPLES * len(SMALL_SIZES)),
}

# Figures measured on a 2-core machine before this benchmark existed (some
# are in ROADMAP.md), printed beside the measured values so that a
# disagreement shows.  Their configs differ where noted.
QUOTED = {
    "setup_s": "0.5-0.85 s",
    "wall_s": {"sweep": "12-14 s", "walklaw": "about 7 s + 17 s",
               "lattice": "about 18 s"},
    "peak_rss_mb": {"sweep": "134 MB", "walklaw": "851 MB (1002 MB at 100k walks)",
                    "lattice": "91 MB"},
    "rng.log_gamma_draws.ns_per_draw": "220-310 ns",
    "polymer.batch_final_profiles.ns_per_site": "275-310 ns, ~80% in the gamma sampler",
    "polymer.batch_final_profiles.sites": "52.5M",
    "experiments.threads2_speedup": "1.4x",
    "walk.increment_cdf.first_call_s": "3.6-4.0 s per (theta, alpha)",
    "multilayer.line_ensemble.s_per_call_order7_p50": "0.08 s",
    "multilayer.line_ensemble.s_per_call_order9_p50": "0.41 s",
    "multilayer.line_ensemble.s_per_call_order11_p50": "1.4 s",
    "multilayer.log_det_scaled.fallback_ratio": "88/204 = 0.43 at order 11, kmax 6",
    "experiments.checks_failed": {"sweep": "4/13 at seed 0",
                                  "walklaw": "1 of 2 in experiment walk at seed 0",
                                  "lattice": "top_avg_margin_rising_toward_ceiling at seed 0"},
}


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Launch:
    argv: list[str]
    code: int
    wall_s: float
    setup_s: float | None
    rss_mib: float
    stdout: str
    stderr: str


def launch(cli_argv: list[str], workdir: Path, env: dict) -> Launch:
    rfd, wfd = os.pipe()
    try:
        with open(workdir / "stdout.txt", "wb+") as out, \
                open(workdir / "stderr.txt", "wb+") as err:
            t0 = time.monotonic()
            try:
                proc = subprocess.Popen(
                    [sys.executable, "-c", CHILD, str(wfd), *cli_argv],
                    pass_fds=(wfd,), stdout=out, stderr=err, env=env, cwd=workdir)
            finally:
                os.close(wfd)
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
            # report the maximum over every child so far
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode(errors="replace")
            stderr = err.read().decode(errors="replace")
        with os.fdopen(rfd, "rb") as fh:
            rfd = None
            stamp = fh.read()
    finally:
        if rfd is not None:
            os.close(rfd)
    try:
        setup = float(stamp) - t0
    except ValueError:
        setup = None
    return Launch(cli_argv, proc.returncode, wall, setup, usage.ru_maxrss / 1024.0,
                  stdout, stderr)


def inspect_action(run: Launch, csv_path: Path) -> tuple[str | None, str | None, int, int]:
    """(problem, csv digest, PASS lines, FAIL lines) for one CLI action.

    Exit 1 is a healthy outcome when, and only when, the driver printed
    FAIL lines: those count as failed checks, not failed operations.
    """
    lines = run.stdout.splitlines()
    npass = sum(line.startswith("PASS ") for line in lines)
    nfail = sum(line.startswith("FAIL ") for line in lines)
    if run.code not in (0, 1):
        return f"exit {run.code}", None, npass, nfail
    if "Traceback (most recent call last)" in run.stderr:
        return "crashed: " + run.stderr.strip().splitlines()[-1], None, npass, nfail
    if (run.code == 1) != (nfail > 0):
        return f"exit {run.code} with {nfail} FAIL lines", None, npass, nfail
    try:
        data = csv_path.read_bytes()
        meta = Path(f"{csv_path}.meta").read_text(encoding="utf-8")
    except OSError as exc:
        return f"missing output: {exc}", None, npass, nfail
    rows = list(csv.reader(data.decode(errors="replace").splitlines()))
    if len(rows) < 2 or any(len(r) != len(rows[0]) or "" in r for r in rows):
        return "malformed CSV", None, npass, nfail
    entries = dict(line.split(" = ", 1) for line in meta.splitlines() if " = " in line)
    if entries.get("checks") != f"{npass}/{npass + nfail} passed":
        return (f".meta says checks = {entries.get('checks')!r}, stdout has "
                f"{npass} PASS and {nfail} FAIL"), None, npass, nfail
    return None, hashlib.sha256(data).hexdigest(), npass, nfail


def run_untraced(wl: Workload, seed: int, seconds: float, workdir: Path, env: dict):
    reps, problems = [], []
    digests: dict[str, str] = {}
    checks = [0, 0]
    t_start = time.monotonic()
    # stop when one more workload run would end further from `seconds`
    # than the runs so far do
    while not reps or (time.monotonic() - t_start) * (1 + 0.5 / len(reps)) < seconds:
        rep = []
        for act in wl.actions:
            out = workdir / f"{act.driver}.csv"
            for stale in (out, Path(f"{out}.meta")):
                stale.unlink(missing_ok=True)
            run = launch(act.argv(seed) + ["--out", str(out)], workdir, env)
            problem, digest, npass, nfail = inspect_action(run, out)
            if digest is not None and digests.setdefault(act.driver, digest) != digest:
                problem = "CSV digest differs from the first run of this action"
            if problem is None and run.setup_s is None:
                problem = "no import time reported"
            if problem:
                problems.append(f"{act.driver} run {len(reps) + 1}: {problem}")
            if not reps:
                checks[0] += nfail
                checks[1] += npass + nfail
            rep.append(run)
        reps.append(rep)
    setups = [run.setup_s for rep in reps for run in rep if run.setup_s is not None]
    for i in range(SETUP_LAUNCHES):
        run = launch([], workdir, env)
        if run.code != 0 or run.setup_s is None:
            problems.append(f"set-up launch {i + 1}: exit {run.code}")
        else:
            setups.append(run.setup_s)
    attempted = len(reps) * len(wl.actions) + SETUP_LAUNCHES
    return reps, setups, problems, attempted, digests, checks


def digest_history(workload: str, seed: int, digests: dict) -> list[str]:
    """Compare CSV digests with earlier invocations on the same sources and
    seed, kept in .bench_out/digests.json, then record these ones."""
    tree = hashlib.sha256()
    for path in sorted((SRC / "hslg_lab").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    store = OUT_ROOT / "digests.json"
    try:
        known = json.loads(store.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    problems = []
    for driver, digest in digests.items():
        key = f"{tree.hexdigest()[:16]} {workload} seed {seed} {driver}"
        if known.setdefault(key, digest) != digest:
            problems.append(f"{driver}: CSV digest differs from an earlier "
                            f"invocation with the same seed and sources")
    store.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return problems


# ---------------------------------------------------------------------------
# run record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_describe() -> str:
    # the ceiling keeps git from describing a repository that merely
    # contains this checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "describe", "--tags", "--always", "--dirty"],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return res.stdout.strip() if res.returncode == 0 else "unavailable (not a git checkout)"


def print_record(name: str, args, wl: Workload, gate) -> None:
    import numpy
    import scipy
    from hslg_lab import rng

    print(f"# hslg-lab benchmark: workload {name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}, cpu {_cpu_model()}")
    print(f"rng {rng.ALGORITHM_ID}, git describe {_git_describe()}")
    for act in wl.actions:
        print("argv: hslg-lab " + " ".join(act.argv(args.seed) + ["--out", "<file>"]))
    for p in gate:
        print(f"gate {'PASS' if p.ok else 'FAIL'} {p.name}: {p.detail}")


def print_metrics(metrics: dict, units: dict, workload: str, notes: dict) -> None:
    for name, value in metrics.items():
        quoted = QUOTED.get(name)
        if isinstance(quoted, dict):
            quoted = quoted.get(workload)
        extra = [notes[name]] if name in notes else []
        if quoted:
            extra.append(f"quoted: {quoted}")
        tail = f"  [{'; '.join(extra)}]" if extra else ""
        print(f"{name} = {value:.6g} {units[name]}{tail}")


# ---------------------------------------------------------------------------


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must lie in [0, 2**64)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _load_package():
    """Import hslg_lab from this checkout's src/, never from elsewhere."""
    if not (SRC / "hslg_lab" / "cli.py").is_file():
        raise BenchError(f"no hslg_lab sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import hslg_lab.cli
    if not Path(hslg_lab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"hslg_lab imported from {hslg_lab.cli.__file__}, not {SRC}")


def _metric_specs() -> tuple[dict, dict]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]})
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read the metric list from BENCHMARK.json: {exc}") from None


def main(argv=None) -> int:
    args = _parse(argv)
    wl = WORKLOADS[args.workload]
    try:
        end_to_end, per_layer = _metric_specs()
        _load_package()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from gate import run_gate

    workdir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        gate = run_gate(args.seed, SWEEP_SIZES, SWEEP_SAMPLES, SMALL_SIZES[0])
        print_record(args.workload, args, wl, gate)
        failed = sum(not p.ok for p in gate)
        attempted = len(gate)
        if args.trace:
            result = _traced(args, wl, workdir, per_layer)
        else:
            result = _untraced(args, wl, workdir, end_to_end)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, units, probes_attempted, probes_failed = result
    attempted += probes_attempted
    failed += probes_failed
    print(f"operations: {attempted} attempted, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def _untraced(args, wl: Workload, workdir: Path, units: dict):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    reps, setups, problems, attempted, digests, checks = run_untraced(
        wl, args.seed, args.seconds, workdir, env)
    problems += digest_history(args.workload, args.seed, digests)
    attempted += len(digests)
    for i, rep in enumerate(reps, 1):
        print(f"run {i}: " + ", ".join(
            f"{r.argv[1]} {r.wall_s:.3f} s (import {r.setup_s or float('nan'):.3f} s, "
            f"{r.rss_mib:.0f} MiB, exit {r.code})" for r in rep))
    for problem in problems:
        print(f"FAILED OPERATION {problem}")
    for driver, digest in digests.items():
        print(f"csv sha256 {driver}: {digest}")
    wall = statistics.median(sum(r.wall_s for r in rep) for rep in reps)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": statistics.median(max(r.rss_mib for r in rep) for rep in reps),
        "work_per_s": wl.work / wall,
    }
    notes = {"wall_s": f"median of {len(reps)} workload runs",
             "setup_s": f"median of {len(setups)} launches",
             "work_per_s": f"{wl.unit}_per_s, {wl.work} {wl.unit} per run"}
    print_metrics(metrics, units, args.workload, notes)
    print(f"ops_failed = {len(problems)}/{attempted} (CLI actions, set-up launches, "
          f"digest comparisons)")
    share = checks[0] / checks[1] if checks[1] else 0.0
    quoted = QUOTED["experiments.checks_failed"][args.workload]
    print(f"checks_failed = {checks[0]}/{checks[1]} = {share:.4g} driver checks "
          f"printed FAIL  [quoted: {quoted}]")
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")
    return metrics, units, attempted, len(problems)


def _traced(args, wl: Workload, workdir: Path, units: dict):
    from gate import Probe
    from traced import run_traced, write_spans

    actions = [(a.driver, a.argv(args.seed)) for a in wl.actions]
    run = run_traced(actions, args.seed, args.seconds, workdir)
    for driver, (plain, traced) in run.driver_s.items():
        print(f"driver {driver}: {plain:.3f} s untraced, {traced:.3f} s traced "
              f"(median of {run.passes} passes)")
    history = digest_history(args.workload, args.seed, run.digests)
    probes = run.probes + [Probe("csv_digests_match_earlier_invocations", not history,
                                 "; ".join(history) or f"{len(run.digests)} compared")]
    for p in probes:
        print(f"probe {'PASS' if p.ok else 'FAIL'} {p.name}: {p.detail}")
    notes = {}
    for name, source in run.sources.items():
        parts = ["tracemalloc peak of traced numpy allocations"] if ".peak_bytes_per_" in name else []
        if source == "probe":
            parts.append("probe input")
        if parts:
            notes[name] = ", ".join(parts)
    metrics = {name: run.metrics[name] for name in units if name in run.metrics}
    missing = [n for n in units if metrics.get(n) is None]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    print_metrics(metrics, units, args.workload, notes)
    spans_path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    write_spans(run.spans, spans_path)
    print(f"{len(run.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return metrics, units, len(probes), sum(not p.ok for p in probes)


if __name__ == "__main__":
    sys.exit(main())
