"""Traced replay: the workload's driver calls run in this process, with a
span around every call into a layer.

Spans are recorded from outside the package: the tracer swaps each
layer's public function for a timing wrapper at the module attribute its
callers look up, and puts the originals back afterwards.  Spans nest by
call order, so a span's self time is its duration minus that of its direct
children.  Everything stays in memory until `write_spans`.

A pass replays every driver of the workload twice, untraced and traced, on
the same config the CLI builds; their CSV digests must agree.  Layers the
workload never calls are timed afterwards on fixed probe inputs, so every
per-layer metric has a value on every workload; the record says which
metrics came from probes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hslg_lab import cli, environment, experiments, multilayer, polymer, rng, stats, walk
from hslg_lab.experiments import ExperimentConfig
from hslg_lab.special import ModelParams

from gate import Probe, guarded

DRIVERS = {
    "pinning": experiments.run_pinning,
    "walk": experiments.run_walk_attractor,
    "quenched": experiments.run_quenched_limit,
    "lln": experiments.run_lln_profile,
}
ENSEMBLE_PARAMS = ModelParams(1.0, -0.3)   # the lattice workload's point
ENSEMBLE_ORDERS = (7, 9, 11)
EXACT_K = 6                                # 2 k* curves at alpha = -0.3


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    t0: float
    t1: float = 0.0
    units: int = 0
    key: int | None = None        # grouping key: ensemble order, matrix order
    error: str | None = None
    child_s: float = 0.0          # time covered by direct children

    @property
    def s(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.s - self.child_s


def _size(args, kwargs, result):
    return int(np.size(result)), None


def _profile_sites(args, kwargs, result):
    return result.shape[0] * args[1] ** 2, None


def _layer_evals(args, kwargs, result):
    # curve k reads layers k and k-1 at each of its 2n-2k+2 positions; the
    # zeroth layer is the constant 1 and costs no determinant
    n = result.n
    evals = sum((2 * n - 2 * k + 2) * (2 if k >= 2 else 1)
                for k in range(1, result.kmax + 1))
    return evals, n


def _calls(args, kwargs, result):
    return 1, None


# span name -> (module attributes that resolve to the layer function, units)
LAYERS = {
    "rng.log_gamma_draws": ([(rng, "log_gamma_draws"), (walk, "log_gamma_draws"),
                             (experiments, "log_gamma_draws")], _size),
    "rng.uniforms": ([(rng, "uniforms"), (stats, "uniforms")], _size),
    "rng.lane_keys": ([(rng, "lane_keys"), (walk, "lane_keys"), (stats, "lane_keys"),
                       (experiments, "lane_keys")], _size),
    "polymer.batch_final_profiles": ([(experiments, "batch_final_profiles")],
                                     _profile_sites),
    "polymer.partition_table": ([(experiments, "partition_table")],
                                lambda a, k, r: (r.n ** 2, None)),
    "multilayer.batch_diag_avoiding_profiles": (
        [(experiments, "batch_diag_avoiding_profiles")], _profile_sites),
    "multilayer.line_ensemble": ([(experiments, "line_ensemble")], _layer_evals),
    "multilayer.quadrant_log_table": ([(multilayer, "quadrant_log_table")], _calls),
    "multilayer.quadrant_exact_table": ([(multilayer, "quadrant_exact_table")], _calls),
    "multilayer.log_det_scaled": ([(multilayer, "log_det_scaled")], _calls),
    "multilayer.exact_det": ([(multilayer, "exact_det")],
                             lambda a, k, r: (1, len(a[0]))),
    "walk.walk_increment_matrix": ([(experiments, "walk_increment_matrix")], _size),
    "walk.increment_cdf": ([(experiments, "increment_cdf")],
                           lambda a, k, r: (int(np.size(a[1])), None)),
    "stats.bootstrap_ci": ([(experiments, "bootstrap_ci")], _calls),
    "stats.ks_test": ([(experiments, "ks_test")], _calls),
}
# generators: one span per item drawn, units = sites in the item
GENERATORS = {
    "environment.stream_log_weights": [(polymer, "stream_log_weights"),
                                       (multilayer, "stream_log_weights")],
}
# calls whose inputs are kept for the tracemalloc pass
MEMORY = ("rng.log_gamma_draws", "walk.walk_increment_matrix")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.largest: dict[str, tuple] = {}
        self._stack: list[Span] = []
        self._ids = itertools.count()     # unique across resets

    def reset(self):
        self.spans, self.largest = [], {}

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(next(self._ids), parent, name, 0.0)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.t0 = time.perf_counter()
        return sp

    def close(self, sp: Span, error: str | None = None):
        sp.t1 = time.perf_counter()
        self._stack.pop()
        sp.error = error
        if self._stack:
            self._stack[-1].child_s += sp.s

    @contextmanager
    def span(self, name: str):
        sp = self.open(name)
        try:
            yield sp
        except BaseException as exc:
            self.close(sp, type(exc).__name__)
            raise
        self.close(sp)

    def _wrap(self, name, fn, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(sp, type(exc).__name__)
                raise
            self.close(sp)
            sp.units, sp.key = measure(args, kwargs, result)
            if name in MEMORY and sp.units > self.largest.get(name, (0,))[0]:
                self.largest[name] = (sp.units, fn, args, kwargs)
            return result
        return traced

    def _wrap_gen(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sp = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    self.close(sp)
                    return
                except BaseException as exc:
                    self.close(sp, type(exc).__name__)
                    raise
                self.close(sp)
                sp.units = int(np.size(item[2]))
                yield item
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, (targets, measure) in LAYERS.items():
                for module, attr in targets:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn, measure))
            for name, targets in GENERATORS.items():
                for module, attr in targets:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap_gen(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# metrics from spans


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer values from one set of spans; None where a layer is absent."""
    by = defaultdict(list)
    for sp in spans:
        by[sp.name].append(sp)

    def per_unit(name, scale=1e9, self_time=False, calls=None):
        calls = by.get(name, []) if calls is None else calls
        units = sum(sp.units for sp in calls)
        if not units:
            return None
        return scale * sum(sp.self_s if self_time else sp.s for sp in calls) / units

    def count(name):
        return sum(sp.units for sp in by[name]) if by.get(name) else None

    def p50(calls):
        return statistics.median(sp.s for sp in calls) if calls else None

    blocks = by.get("polymer.batch_final_profiles", [])
    ensembles = by.get("multilayer.line_ensemble", [])
    dets = by.get("multilayer.log_det_scaled", [])
    cdf = by.get("walk.increment_cdf", [])
    drivers = by.get("experiments.driver", [])
    out = {
        "rng.log_gamma_draws.ns_per_draw": per_unit("rng.log_gamma_draws"),
        "rng.uniforms.ns_per_word": per_unit("rng.uniforms"),
        "rng.lane_keys.ns_per_key": per_unit("rng.lane_keys"),
        "rng.log_gamma_draws.draws": count("rng.log_gamma_draws"),
        "environment.stream_log_weights.self_ns_per_site":
            per_unit("environment.stream_log_weights", self_time=True),
        "polymer.batch_final_profiles.ns_per_site":
            per_unit("polymer.batch_final_profiles"),
        "polymer.batch_final_profiles.self_ns_per_site":
            per_unit("polymer.batch_final_profiles", self_time=True),
        "polymer.batch_final_profiles.s_per_block_p50": p50(blocks),
        "polymer.batch_final_profiles.s_per_block_max":
            max((sp.s for sp in blocks), default=None),
        "polymer.batch_final_profiles.sites": count("polymer.batch_final_profiles"),
        "polymer.partition_table.ns_per_site": per_unit("polymer.partition_table"),
        "multilayer.line_ensemble.layer_evals": count("multilayer.line_ensemble"),
        "multilayer.log_det_scaled.fallback_ratio":
            sum(sp.error is not None for sp in dets) / len(dets) if dets else None,
        "multilayer.quadrant_log_table.s_per_call":
            per_unit("multilayer.quadrant_log_table", scale=1.0),
        "multilayer.quadrant_exact_table.s_per_call":
            per_unit("multilayer.quadrant_exact_table", scale=1.0),
        "multilayer.exact_det.s_per_call_k6":
            p50([sp for sp in by.get("multilayer.exact_det", []) if sp.key == EXACT_K]),
        "multilayer.batch_diag_avoiding_profiles.ns_per_site":
            per_unit("multilayer.batch_diag_avoiding_profiles"),
        "walk.walk_increment_matrix.ns_per_step": per_unit("walk.walk_increment_matrix"),
        "walk.increment_cdf.first_call_s": cdf[0].s if cdf else None,
        "walk.increment_cdf.ns_per_eval": per_unit("walk.increment_cdf", calls=cdf[1:]),
        "stats.bootstrap_ci.self_s_per_call":
            per_unit("stats.bootstrap_ci", scale=1.0, self_time=True),
        "stats.ks_test.self_s_per_call":
            per_unit("stats.ks_test", scale=1.0, self_time=True),
        "experiments.drivers.s": sum(sp.s for sp in drivers) if drivers else None,
        "experiments.drivers.self_s":
            sum(sp.self_s for sp in drivers) if drivers else None,
        "cli.emit_csv.s": sum(sp.s for sp in by["cli.emit_csv"])
            if by.get("cli.emit_csv") else None,
    }
    for order in ENSEMBLE_ORDERS:
        calls = [sp for sp in ensembles if sp.key == order]
        out[f"multilayer.line_ensemble.s_per_call_order{order}_p50"] = p50(calls)
        out[f"multilayer.line_ensemble.s_per_call_order{order}_max"] = (
            max(sp.s for sp in calls) if calls else None)
    return out


def ensemble_evals_agree(spans: list[Span]):
    """The layer-evaluation count must equal the determinants actually taken."""
    ensembles = {sp.id: sp for sp in spans if sp.name == "multilayer.line_ensemble"}
    taken = sum(1 for sp in spans
                if sp.name == "multilayer.log_det_scaled" and sp.parent in ensembles)
    expected = sum(sp.units for sp in ensembles.values())
    return taken == expected, f"{taken} determinants for {expected} counted layer evaluations"


# ---------------------------------------------------------------------------
# probes for layers a workload bypasses (inputs fixed by the seed)


def _probe_partition_table(seed):
    params = ModelParams(1.0, -0.5)
    experiments.partition_table(
        environment.generate_environment(params, 50, "standard", seed, 0))


def _probe_walk_matrix(seed):
    experiments.walk_increment_matrix(ModelParams(1.0, -0.5), 1000, 400, seed, 0)


def _probe_cdf(seed):
    clear_cdf_cache()
    params = ModelParams(1.0, -0.5)
    experiments.increment_cdf(params, np.linspace(-5.0, 5.0, 1000))
    experiments.increment_cdf(params, np.linspace(-5.0, 5.0, 100_000))


def _lattice_env(order, seed):
    """The first environment the lattice workload builds an ensemble on."""
    env = environment.generate_environment(ENSEMBLE_PARAMS, order + 1, "standard",
                                           seed, 0)
    return environment.symmetrize(env)


def _probe_ensembles(seed):
    for order in ENSEMBLE_ORDERS:
        experiments.line_ensemble(_lattice_env(order, seed), EXACT_K, order=order)


def _probe_diag_avoiding(seed):
    experiments.batch_diag_avoiding_profiles(
        ModelParams(1.0, -0.5), 50, "alpha-zero-diagonal", seed,
        np.arange(256, dtype=np.uint64))


def _probe_stats(seed):
    keys = rng.lane_keys(seed, 0, np.arange(1000, dtype=np.uint64))
    values = rng.uniforms(keys, 0)
    experiments.ks_test(values, lambda v: v)
    experiments.bootstrap_ci(values, np.median, seed=seed)


PROBES = {
    "polymer.partition_table": _probe_partition_table,
    "walk.walk_increment_matrix": _probe_walk_matrix,
    "walk.increment_cdf": _probe_cdf,
    "multilayer.line_ensemble": _probe_ensembles,
    "multilayer.batch_diag_avoiding_profiles": _probe_diag_avoiding,
    "stats.ks_test": _probe_stats,
    "stats.bootstrap_ci": _probe_stats,
}


def exact_det_replay(seed):
    """Time `exact_det` on the k=6 staircase matrices line_ensemble would
    hand it, for the first lattice environment of each order."""
    for order in ENSEMBLE_ORDERS:
        senv = _lattice_env(order, seed)
        tables = {c: multilayer.quadrant_exact_table(senv, c, 2 * order, order + 1)
                  for c in range(1, EXACT_K + 1)}
        for p in range(1, 2 * order - 2 * EXACT_K + 3):
            m, ncol = multilayer.staircase_site(order, p)
            ends = [(m, ncol - b) for b in range(EXACT_K)]
            matrix = [[tables[EXACT_K - a].get(e, Fraction(0)) for e in ends]
                      for a in range(EXACT_K)]
            multilayer.exact_det(matrix)


def traced_peak_bytes(largest) -> dict:
    """tracemalloc peak of the biggest call of each MEMORY layer, per unit.

    These are traced numpy allocations made during the call (temporaries
    and the result), not process RSS.
    """
    out = {}
    for name in MEMORY:
        units, fn, args, kwargs = largest[name]
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[name] = peak / units
    return out


# ---------------------------------------------------------------------------
# the replay


def clear_cdf_cache():
    # every CLI process builds the increment CDF table once; an in-process
    # replay must start from the same empty cache to pay the same cost
    walk._cdf_table.cache_clear()


def driver_config(argv: list[str]) -> ExperimentConfig:
    """The ExperimentConfig that `hslg-lab <argv>` hands its driver."""
    inv = cli.parse_config(argv)
    o = inv.options
    extra = {k: o[k] for k in ("significance", "k_grid", "r_max", "walk_samples",
                               "deep_m", "small_sizes", "small_samples")
             if o[k] is not None}
    return ExperimentConfig(ModelParams(o["theta"], o["alpha"]), tuple(o["sizes"]),
                            o["samples"], seed=o["seed"], stream=o["stream"],
                            flavor=o["flavor"], threads=o["threads"],
                            out=str(o["out"]), theorem=inv.action, **extra)


def _emit(report, out) -> tuple[str, int]:
    cli.emit_csv(report, out)
    data = out.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


@dataclass
class TracedRun:
    metrics: dict
    sources: dict
    probes: list
    driver_s: dict            # driver -> (untraced, traced) medians
    digests: dict             # driver -> CSV sha256
    passes: int
    spans: list


def run_traced(actions, seed: int, seconds: float, workdir) -> TracedRun:
    """`actions` is a list of (driver, argv without --out)."""
    tracer = Tracer()
    configs = []
    for driver, argv in actions:
        out = workdir / f"{driver}.csv"
        configs.append((driver, driver_config(argv + ["--out", str(out)]), out))

    pass_metrics, probes = [], []
    untraced_s, traced_s = defaultdict(list), defaultdict(list)
    digests, csv_bytes, checks = {}, 0, [0, 0]
    all_spans = []
    t_start = time.monotonic()
    # as in the untraced run: stop when another pass would end further
    # from `seconds` than the passes so far do
    while (not pass_metrics
           or (time.monotonic() - t_start) * (1 + 0.5 / len(pass_metrics)) < seconds):
        tracer.reset()
        for driver, config, out in configs:
            run = DRIVERS[driver]
            clear_cdf_cache()
            t0 = time.perf_counter()
            report = run(config)
            untraced_s[driver].append(time.perf_counter() - t0)
            plain, nbytes = _emit(report, out)
            clear_cdf_cache()
            with tracer.installed():
                with tracer.span("experiments.driver") as sp:
                    report = run(config)
                with tracer.span("cli.emit_csv"):
                    digest, _ = _emit(report, out)
            traced_s[driver].append(sp.s)
            first = digests.setdefault(driver, plain)
            probes.append(Probe(f"{driver}_traced_output_unchanged",
                                digest == plain == first,
                                f"untraced {plain[:12]}, traced {digest[:12]}, "
                                f"first pass {first[:12]}"))
            if len(pass_metrics) == 0:
                csv_bytes += nbytes
                checks[0] += sum(not c.passed for c in report.checks)
                checks[1] += len(report.checks)
        pass_metrics.append(layer_metrics(tracer.spans))
        if len(pass_metrics) == 1:
            largest = dict(tracer.largest)
        all_spans.extend(tracer.spans)

    # threads=2 must reproduce threads=1 bitwise
    driver, config, out = configs[0]
    clear_cdf_cache()
    t0 = time.perf_counter()
    report = DRIVERS[driver](dataclasses.replace(config, threads=2))
    t2 = time.perf_counter() - t0
    digest, _ = _emit(report, out)
    probes.append(Probe(f"{driver}_threads2_bitwise_equal", digest == digests[driver],
                        f"threads=2 {digest[:12]}, threads=1 {digests[driver][:12]}"))

    # probes for bypassed layers, then the exact-determinant replay
    present = {sp.name for sp in all_spans}
    tracer.reset()
    with tracer.installed():
        for fn in dict.fromkeys(fn for name, fn in PROBES.items() if name not in present):
            fn(seed)
        exact_det_replay(seed)
    probe_metrics = layer_metrics(tracer.spans)
    for name in MEMORY:
        if name not in largest:
            largest[name] = tracer.largest[name]
    all_spans.extend(tracer.spans)
    probes.append(guarded("layer_evals_match_determinants",
                          lambda: ensemble_evals_agree(all_spans)))

    metrics, sources = {}, {}
    for name in pass_metrics[0]:
        values = [m[name] for m in pass_metrics if m[name] is not None]
        if values:
            metrics[name], sources[name] = statistics.median(values), "workload"
        else:
            metrics[name], sources[name] = probe_metrics[name], "probe"
    for name, per_unit in traced_peak_bytes(largest).items():
        unit = "draw" if name.startswith("rng") else "step"
        metrics[f"{name}.peak_bytes_per_{unit}"] = per_unit
        sources[f"{name}.peak_bytes_per_{unit}"] = (
            "workload" if name in present else "probe")
    plain = sum(statistics.median(untraced_s[d]) for d, _, _ in configs)
    traced = sum(statistics.median(traced_s[d]) for d, _, _ in configs)
    extra = {
        "experiments.tracing_overhead": traced / plain - 1.0,
        "experiments.threads2_speedup": statistics.median(untraced_s[driver]) / t2,
        "experiments.checks_failed": checks[0] / checks[1] if checks[1] else 0.0,
        "cli.csv_bytes": csv_bytes,
    }
    metrics.update(extra)
    sources.update(dict.fromkeys(extra, "workload"))
    driver_s = {d: (statistics.median(untraced_s[d]), statistics.median(traced_s[d]))
                for d, _, _ in configs}
    return TracedRun(metrics, sources, probes, driver_s, digests, len(pass_metrics),
                     all_spans)


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sp in spans:
            fh.write(json.dumps(dataclasses.asdict(sp)) + "\n")
