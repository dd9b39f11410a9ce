"""Command-line front end: flat-file config, subcommand dispatch, CSV output.

Groups and actions:

    env gen | check             sample or validate environment files
    simulate endpoint | path | ensemble
    verify umap | lgv | identity | sbd | gibbs
    experiment pinning | walk | quenched | fluct | lln

Exit status: 0 when every check passes, 1 when an assertion or statistical
check fails, 2 on usage errors (bad flags, bad config file, missing
required flag, an integer option outside its range, a seed or a run of
streams outside [0, 2**64), settings an experiment driver refuses, a
``verify lgv`` instance past the enumeration cap).

Each action accepts only the options its handler reads (`_ACTIONS` lists
them, ``-h`` prints them).  An experiment's options are theta, alpha and the
ExperimentConfig fields its entry in `experiments.EXPERIMENTS` reads; that
entry also names its driver.  ``env check`` and ``verify umap`` take no
options; of the experiments only ``walk`` takes ``--flavor``.  Experiments
take sizes only as ``--sizes N1,N2,..`` (one size is ``--sizes N``); ``--n``
is the size of one environment.  An unread or abbreviated flag exits 2.

Every parameter resolves with the same precedence: command-line flag, then
config-file entry, then the HSLG_LAB_SEED environment variable (seed only,
for actions that read a seed), then built-in defaults.  Config files are
flat ``key = value`` text with ``#`` comments, given by ``--config`` to an
action that reads at least one option; a key that is unknown, or that the
action does not read, exits 2 with its line number.

Experiments, and simulate actions given ``--out``, write plot-ready CSV plus
a ``.meta`` companion; there is no embedded plotting.  The ``.meta`` names
what the action read: theta, alpha and each option it reads, but
``--threads``, which never changes a number, and a simulate action's
``--out``.  It adds the report name, the package version, the sampler's
algorithm id (``rng``, as an environment file's header has it) and the
check tally, and for an experiment `theorem`, the action's name.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from importlib import metadata

import numpy as np

from .environment import (FLAVORS, EnvFormatError, generate_dyadic_environment,
                          generate_environment, read_environment, symmetrize,
                          wedge_count, wedge_sites, write_environment)
from .experiments import (EXPERIMENTS, ConfigError, ExperimentConfig, StatReport,
                          line_ensembles)
from .gibbs import conditional_cdf, gibbs_region, site_law
from .multilayer import (InstanceTooLarge, check_brute_size, curve_length, line_ensemble,
                         multilayer_brute, multilayer_lgv)
from .polymer import endpoint_pmf, exact_partition_table, partition_table, sample_path_codes
from .rng import ALGORITHM_ID, in_u64
from .special import ModelParams
from .stats import KS_MIN_SAMPLES, SIGNIFICANCE, ks_test
from .umap import check_sbd_inequality, enumerate_disjoint_pairs, property_violations

UMAP_CORNERS = ((2, 2), (3, 2), (4, 3), (4, 4))


class UsageError(Exception):
    """Anything that should end the process with exit status 2."""


# ---------------------------------------------------------------------------
# config resolution


def _int_tuple(text: str):
    parts = [p.strip() for p in str(text).split(",")]
    try:
        return tuple(int(p) for p in parts if p != "")
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _flavor(text: str) -> str:
    if text not in FLAVORS:
        raise ValueError(f"unknown flavor {text!r}")
    return text


def _precision(text: str) -> str:
    if text not in ("float", "exact"):
        raise ValueError("precision must be 'float' or 'exact'")
    return text


# Every option once: (flag, dest, type, default, help).  The config-file
# converters, the defaults and the parser are all read from this table; a
# None default means "not set", and the handler picks its own default.
_OPTIONS = (
    ("--theta", "theta", float, 1.0, "bulk shape is 2*theta (default 1.0)"),
    ("--alpha", "alpha", float, -0.5,
     "diagonal shape offset, bound phase needs alpha < 0 (default -0.5)"),
    ("--n", "n", int, None, "lattice size"),
    ("--flavor", "flavor", _flavor, "standard",
     "environment flavor: standard, stationary, alpha-zero-diagonal"),
    ("--samples", "samples", int, 200, "environments per size (default 200)"),
    ("--seed", "seed", int, 0, "RNG seed (default HSLG_LAB_SEED or 0)"),
    ("--stream", "stream", int, 0, "RNG stream offset (default 0)"),
    ("--threads", "threads", int, 1, "worker threads; never changes output"),
    ("--out", "out", str, None, "output path (CSV or environment file)"),
    ("--precision", "precision", _precision, "float",
     "float or exact (dyadic weights)"),
    ("--sizes", "sizes", _int_tuple, None, "comma-separated increasing sizes N"),
    ("--k-grid", "k_grid", _int_tuple, None, "comma-separated endpoint tail offsets"),
    ("--r-max", "r_max", int, None, "deepest increment index"),
    ("--walk-samples", "walk_samples", int, None, "random-walk sample count"),
    ("--deep-m", "deep_m", int, None, "deep-tail depth multiplier"),
    ("--small-sizes", "small_sizes", _int_tuple, None, "orders of the top-curve average"),
    ("--small-samples", "small_samples", int, None, "environments per small order"),
    ("--significance", "significance", float, None,
     f"significance level of each statistical check (default {SIGNIFICANCE:g})"),
    ("--envs", "envs", int, None, "environment count"),
    ("--r", "r", int, None, "max layer count"),
    ("--k", "k", int, None, "layer-pair count"),
    ("--kmax", "kmax", int, None, "curve count"),
    ("--count", "count", int, None, "path count for simulate path"),
)
_CONVERTERS = {dest: conv for _, dest, conv, _, _ in _OPTIONS}
_DEFAULTS = {dest: default for _, dest, _, default, _ in _OPTIONS}

def _read_config(path, reads, command: str) -> dict:
    """Parse flat ``key = value`` text; reject keys not in `reads` by line."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    pairs = {}
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            raise UsageError(f"{path}: line {line_no}: expected 'key = value'")
        conv = _CONVERTERS.get(key)
        if conv is None:
            raise UsageError(f"{path}: line {line_no}: unknown key {key!r}")
        if key not in reads:
            raise UsageError(f"{path}: line {line_no}: {command} does not read "
                             f"key {key!r}")
        try:
            pairs[key] = conv(value)
        except ValueError as exc:
            raise UsageError(f"{path}: line {line_no}: key {key!r}: {exc}") from None
    return pairs


@dataclass(frozen=True)
class Invocation:
    """A fully resolved command: flags already merged over config/defaults."""

    group: str
    action: str
    options: dict


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hslg-lab",
        description="Half-space log-gamma polymer laboratory (bound phase).")
    groups = parser.add_subparsers(dest="group", metavar="GROUP")
    for group, (group_help, actions) in _ACTIONS.items():
        sub = groups.add_parser(group, help=group_help).add_subparsers(
            dest="action", metavar="ACTION")
        for name, (help_text, reads, _) in actions.items():
            # no abbreviations: an unread --k must not pass for --kmax
            leaf = sub.add_parser(name, help=help_text, allow_abbrev=False)
            if (group, name) == ("env", "check"):
                leaf.add_argument("file")
            for flag, dest, conv, _, text in _OPTIONS:
                if dest in reads:
                    leaf.add_argument(flag, dest=dest, type=conv, help=text)
            if reads:
                leaf.add_argument("--config", help="flat key = value config file "
                                  "setting only the options above")
    return parser


def parse_config(argv=None) -> Invocation:
    """Merge flags over config file over env-var seed over defaults.

    `options` holds every key of `_OPTIONS`; those the action does not
    read keep their defaults.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.group is None:
        parser.print_usage(sys.stderr)
        raise UsageError("missing subcommand")
    action = getattr(ns, "action", None)
    if action is None:
        raise UsageError(f"{ns.group}: missing action (see hslg-lab {ns.group} -h)")
    _, reads, _ = _LEAVES[ns.group, action]

    opts = dict(_DEFAULTS)
    seed_env = os.environ.get("HSLG_LAB_SEED")
    if seed_env is not None and "seed" in reads:
        try:
            opts["seed"] = int(seed_env)
        except ValueError:
            raise UsageError(
                f"HSLG_LAB_SEED must be an integer, got {seed_env!r}") from None
    if getattr(ns, "config", None) is not None:
        opts.update(_read_config(ns.config, reads, f"{ns.group} {action}"))
    for key in reads:
        if getattr(ns, key) is not None:
            opts[key] = getattr(ns, key)
    for key in ("seed", "stream"):
        if key in reads and not in_u64(opts[key], 1):
            raise UsageError(f"{key} must lie in [0, 2**64), got {opts[key]}")
    if hasattr(ns, "file"):
        opts["file"] = ns.file
    return Invocation(ns.group, action, opts)


def _params(opts) -> ModelParams:
    try:
        return ModelParams(opts["theta"], opts["alpha"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _require(opts, key: str, flag: str):
    value = opts.get(key)
    if value is None:
        raise UsageError(f"missing required flag {flag}")
    return value


def _streams(opts, count: int) -> int:
    """`count` streams from --stream on; exit 2 unless all lie in [0, 2**64)."""
    if not in_u64(opts["stream"], count):
        raise UsageError(f"--stream {opts['stream']} with {count} streams leaves [0, 2**64)")
    return count


def _int_option(opts, key: str, default: int, minimum: int,
                maximum: int | None = None) -> int:
    """An integer option, or its default; exit 2 outside [minimum, maximum]."""
    value = opts[key] if opts[key] is not None else default
    if value < minimum or (maximum is not None and value > maximum):
        span = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise UsageError(f"--{key.replace('_', '-')} must be {span}, got {value}")
    return value


# ---------------------------------------------------------------------------
# CSV emission


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _version() -> str:
    try:
        base = metadata.version("hslg-lab")
    except metadata.PackageNotFoundError:
        base = "0"
    try:
        res = subprocess.run(["git", "describe", "--tags", "--always", "--dirty"],
                             cwd=os.path.dirname(os.path.abspath(__file__)),
                             capture_output=True, text=True, timeout=10)
        desc = res.stdout.strip() if res.returncode == 0 else ""
    except OSError:
        desc = ""
    return f"{base}+g{desc}" if desc else base


def _csv_text(report: StatReport) -> str:
    body = "".join(",".join(_cell(x) for x in row) + "\n" for row in report.rows)
    return ",".join(report.header) + "\n" + body


def emit_csv(report: StatReport, path) -> None:
    """Write the report rows as CSV plus a ``.meta`` provenance companion."""
    meta = [f"name = {report.name}", f"version = {_version()}", f"rng = {ALGORITHM_ID}"]
    meta += [f"{key} = {report.config[key]}" for key in sorted(report.config)]
    npass = sum(c.passed for c in report.checks)
    meta.append(f"checks = {npass}/{len(report.checks)} passed")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_text(report))
        with open(f"{path}.meta", "w", encoding="utf-8") as fh:
            fh.write("\n".join(meta) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _deliver(report: StatReport, out) -> None:
    if out is None:
        sys.stdout.write(_csv_text(report))
    else:
        emit_csv(report, out)
        print(f"wrote {out} and {out}.meta")


# ---------------------------------------------------------------------------
# handlers


def _env_gen(o) -> int:
    params = _params(o)
    n = _int_option(o, "n", _require(o, "n", "--n"), 1)
    out = _require(o, "out", "--out")
    if o["precision"] == "exact":
        if o["flavor"] != "standard":
            raise UsageError("exact precision supports the standard flavor only")
        env = generate_dyadic_environment(params, n, o["seed"], o["stream"])
    else:
        env = generate_environment(params, n, o["flavor"], o["seed"], o["stream"])
    try:
        write_environment(env, out)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from None
    print(f"wrote {out}: n={n} flavor={env.flavor} sites={wedge_count(n)}")
    return 0


def _env_check(o) -> int:
    path = o["file"]
    try:
        env = read_environment(path)
    except EnvFormatError as exc:
        print(f"{path}: FAIL: {exc}")
        return 1
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    print(f"{path}: ok (n={env.n}, flavor={env.flavor}, "
          f"theta={env.params.theta:g}, alpha={env.params.alpha:g}, "
          f"sites={wedge_count(env.n)})")
    return 0


def _simulate(o, action: str) -> int:
    params = _params(o)
    # an ensemble's kmax lies in [1, n - 1]
    n = _int_option(o, "n", _require(o, "n", "--n"), 2 if action == "ensemble" else 1)
    if action == "path":
        count = _int_option(o, "count", 100, 1)
    elif action == "ensemble":
        kmax = _int_option(o, "kmax", min(2, n - 1), 1, n - 1)
    env = generate_environment(params, n, o["flavor"], o["seed"], o["stream"])
    _, reads, _ = _LEAVES["simulate", action]
    echo = {key: o[key] for key in reads if key != "out"}
    if action == "endpoint":
        pmf = endpoint_pmf(partition_table(env))
        rows = [(r, float(p)) for r, p in enumerate(pmf)]
        report = StatReport("simulate_endpoint", echo, ("r", "probability"), rows)
    elif action == "path":
        try:
            codes = sample_path_codes(partition_table(env), count, o["seed"], o["stream"])
        except ValueError as exc:
            raise UsageError(f"simulate path: {exc}") from None
        echo["count"] = count
        rows = [(i, int(c)) for i, c in enumerate(codes)]
        report = StatReport("simulate_path", echo, ("index", "code"), rows)
    else:
        ens = line_ensemble(symmetrize(env), kmax)
        echo["kmax"] = kmax
        rows = [(k, p, ens.h(k, p))
                for k in range(1, kmax + 1)
                for p in range(1, curve_length(ens.n, k) + 1)]
        report = StatReport("simulate_ensemble", echo, ("k", "p", "h"), rows)
    _deliver(report, o["out"])
    return 0


def _verify_umap(o) -> int:
    pairs = 0
    violations = []
    for m, n in UMAP_CORNERS:
        for x in (1, 2):
            pairs += len(enumerate_disjoint_pairs(m, n, x))
            violations += [f"(m={m}, n={n}, x={x}) {v}"
                           for v in property_violations(m, n, x)]
    print(f"pair rewiring: {pairs} disjoint pairs over "
          f"{len(UMAP_CORNERS) * 2} corner/boundary domains")
    if violations:
        print(f"FAIL: {len(violations)} violations; first: {violations[0]}")
        return 1
    print("PASS: diagonal transfer, site-multiset preservation, "
          "preimage bounds, endpoint placement")
    return 0


def _verify_identity(o) -> int:
    params = _params(o)
    n = _int_option(o, "n", 5, 1)
    envs = _streams(o, _int_option(o, "envs", 50, 1))
    sites = 0
    for e in range(envs):
        env = generate_dyadic_environment(params, n, o["seed"], o["stream"] + e)
        senv = symmetrize(env)
        for (i, j), z in sorted(exact_partition_table(env).items()):
            zsym = multilayer_lgv(senv, i, j, 1)
            if 2 * zsym != z:
                print(f"FAIL: environment {e} (seed={o['seed']}, "
                      f"stream={o['stream'] + e}), site ({i},{j}): "
                      f"2*symmetrized = {2 * zsym} != {z}")
                return 1
            sites += 1
    print(f"PASS: 2 * symmetrized value = half-space value at {sites} sites "
          f"({envs} dyadic environments, n={n}), exact rational equality")
    return 0


def _verify_lgv(o) -> int:
    params = _params(o)
    n = _int_option(o, "n", 4, 1)
    envs = _streams(o, _int_option(o, "envs", 25, 1))
    r_top = _int_option(o, "r", 2, 1)
    cases = [(i, j, r) for i, j in wedge_sites(n) for r in range(1, min(r_top, j) + 1)]
    for i, j, r in cases:
        try:
            check_brute_size(i, j, r)
        except InstanceTooLarge as exc:
            raise UsageError(f"--n {n} --r {r_top} reaches site ({i},{j}) at "
                             f"r={r}: {exc}") from None
    checked = 0
    for e in range(envs):
        env = generate_dyadic_environment(params, n, o["seed"], o["stream"] + e)
        senv = symmetrize(env)
        for i, j, r in cases:
            det = multilayer_lgv(senv, i, j, r)
            brute = multilayer_brute(senv, i, j, r)
            if det != brute:
                print(f"FAIL: environment {e} (stream={o['stream'] + e}), "
                      f"site ({i},{j}), layers r={r}: "
                      f"determinant {det} != enumeration {brute}")
                return 1
            checked += 1
    print(f"PASS: determinant = exhaustive non-intersecting enumeration at "
          f"{checked} (site, r) cases ({envs} dyadic environments, n={n}, "
          f"r <= {r_top}), exact rational equality")
    return 0


def _verify_sbd(o) -> int:
    params = _params(o)
    n = _int_option(o, "n", 6, 1)
    envs = _streams(o, _int_option(o, "envs", 100, 1))
    m, site_n = n + 1, n - 1
    if o["k"] is None:
        ks = tuple(k for k in (1, 2) if 2 * k <= site_n)
        if not ks:
            raise UsageError(f"--n must be >= 3 for a k with 2k <= n - 1, got {n}")
    else:
        ks = (_int_option(o, "k", 1, 1),)
        if 2 * ks[0] > site_n:
            raise UsageError(f"--k {ks[0]} needs n >= {2 * ks[0] + 1}")
    for e in range(envs):
        env = generate_dyadic_environment(params, n, o["seed"], o["stream"] + e)
        senv = symmetrize(env)
        for k in ks:
            res = check_sbd_inequality(senv, m, site_n, k)
            if not res.holds:
                print(f"FAIL: environment {e} (stream={o['stream'] + e}), "
                      f"(m,n)=({m},{site_n}), k={k}: "
                      f"lhs {float(res.lhs):.6g} > rhs {float(res.rhs):.6g}")
                return 1
    print(f"PASS: 2k-layer value <= anti-diagonal product bound at "
          f"(m,n)=({m},{site_n}), k in {sorted(ks)}, {envs} dyadic environments")
    return 0


def _verify_gibbs(o) -> int:
    params = _params(o)
    n = _int_option(o, "n", 6, 2)
    kmax = _int_option(o, "kmax", 4, 2, n)
    envs = _streams(o, _int_option(o, "envs", 400, KS_MIN_SAMPLES))
    significance = o["significance"] if o["significance"] is not None else SIGNIFICANCE
    if not 0.0 < significance < 1.0:
        raise UsageError(f"--significance must lie in (0, 1), got {significance}")
    ensembles = line_ensembles(params, n, kmax, o["seed"], o["stream"], envs)
    sites = sorted(s for s in gibbs_region(n) if s[0] < kmax)
    results = {s: ks_test(conditional_cdf(*site_law(params, ensembles, s)),
                          lambda x: x) for s in sites}
    worst = min(sites, key=lambda s: results[s].pvalue)
    floor = significance / len(sites)
    print(f"worst site {worst}: KS D = {results[worst].statistic:.4f}, "
          f"p = {results[worst].pvalue:.3g} (floor {floor:.3g} = "
          f"{significance:g} / {len(sites)} sites)")
    if results[worst].pvalue < floor:
        print(f"FAIL: conditional PIT of H{worst} is not uniform "
              f"(seed={o['seed']}, streams {o['stream']}..{o['stream'] + envs - 1})")
        return 1
    print(f"PASS: single-site conditional PITs uniform at {len(sites)} sites "
          f"({envs} gamma environments, order {n}, curves 1..{kmax})")
    return 0


def _experiment(o, action: str) -> int:
    out = _require(o, "out", "--out")
    params = _params(o)
    _require(o, "sizes", "--sizes")
    experiment = EXPERIMENTS[action]
    # every set option the experiment reads goes to its driver
    kwargs = {dest: o[dest] for dest in experiment.reads if o[dest] is not None}
    kwargs.update(out=str(out), theorem=action)
    try:
        config = ExperimentConfig(params, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # each count the experiment reads numbers environments or walks from --stream on
    _streams(o, max(getattr(config, f) for f in ("samples", "walk_samples", "small_samples")
                    if f in experiment.reads))
    try:
        report = experiment.run(config)
    except ConfigError as exc:
        raise UsageError(str(exc)) from None
    emit_csv(report, out)
    for c in report.checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    npass = sum(c.passed for c in report.checks)
    print(f"{report.name}: {npass}/{len(report.checks)} checks passed; "
          f"wrote {out} and {out}.meta")
    if not report.passed:
        first = next(c for c in report.checks if not c.passed)
        print(f"first failing check: {first.name}: {first.detail} "
              f"[sizes={list(config.sizes)} samples={config.samples} "
              f"seed={config.seed} stream={config.stream}]", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# dispatch


# What each action reads and runs:
# group -> (help, {action: (help, option dests, handler)}).
# A leaf parser takes these options and no others, and its config file may
# set only these; an action that reads no option takes no --config either.
# The experiment leaves come from `EXPERIMENTS`.
_MODEL = ("theta", "alpha", "seed", "stream")
_SIMULATE = _MODEL + ("n", "flavor", "out")
_VERIFY = _MODEL + ("n", "envs")
_ACTIONS = {
    "env": ("environment files", {
        "gen": ("sample an environment and write it to --out",
                _SIMULATE + ("precision",), _env_gen),
        "check": ("validate an environment file", (), _env_check),
    }),
    "simulate": ("single-environment output", {
        "endpoint": ("quenched endpoint pmf as CSV r,probability", _SIMULATE,
                     partial(_simulate, action="endpoint")),
        "path": ("sampled path codes as CSV index,code", _SIMULATE + ("count",),
                 partial(_simulate, action="path")),
        "ensemble": ("line-ensemble curves as CSV k,p,h", _SIMULATE + ("kmax",),
                     partial(_simulate, action="ensemble")),
    }),
    "verify": ("exact structural checks and the Gibbs property", {
        "umap": ("exhaustive pair-rewiring contract sweep", (), _verify_umap),
        "lgv": ("determinant vs exhaustive non-intersecting enumeration",
                _VERIFY + ("r",), _verify_lgv),
        "identity": ("doubled symmetrized value equals half-space value",
                     _VERIFY, _verify_identity),
        "sbd": ("2k-layer anti-diagonal product bound", _VERIFY + ("k",),
                _verify_sbd),
        "gibbs": ("line-ensemble values against their single-site conditional "
                  "laws (KS of the PIT)", _VERIFY + ("kmax", "significance"),
                  _verify_gibbs),
    }),
    "experiment": ("statistical drivers", {
        name: (e.summary, ("theta", "alpha") + e.reads,
               partial(_experiment, action=name))
        for name, e in EXPERIMENTS.items()}),
}
_LEAVES = {(group, action): leaf for group, (_, actions) in _ACTIONS.items()
           for action, leaf in actions.items()}


def dispatch(inv: Invocation) -> int:
    """Run a resolved invocation's handler; returns the process exit status."""
    _, _, handler = _LEAVES[inv.group, inv.action]
    return handler(inv.options)


def main(argv=None) -> int:
    try:
        return dispatch(parse_config(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
