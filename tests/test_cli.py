"""Exit statuses of the command-line front end for inputs it must refuse,
and the options each action accepts."""
import re
import sys
from pathlib import Path

import pytest

from hslg_lab import cli, experiments
from hslg_lab.experiments import ExperimentConfig, StatReport
from hslg_lab.special import ModelParams
from hslg_lab.stats import KS_MIN_SAMPLES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run as bench_run  # noqa: E402  (importable only once bench/ is on the path)
import traced  # noqa: E402


class TestPathCodeWidth:
    def test_largest_size_prints_codes(self, capsys):
        assert cli.main(["simulate", "path", "--n", "32", "--count", "5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 5
        assert all(int(r.split(",")[1]) >= 0 for r in rows)

    def test_overflowing_size_is_a_usage_error(self, capsys):
        assert cli.main(["simulate", "path", "--n", "33", "--count", "5"]) == 2
        assert "n <= 32" in capsys.readouterr().err


class Reached(Exception):
    """Raised by a stand-in for the first piece of work a driver does."""


def reached(*args, **kwargs):
    raise Reached


@pytest.mark.parametrize("action", ["pinning", "walk", "quenched", "fluct", "lln"])
def test_drivers_take_large_sample_counts(action, tmp_path, monkeypatch):
    # no driver caps its sample count: each gets as far as its first work
    monkeypatch.setattr(experiments, "_profiles", reached)
    monkeypatch.setattr(experiments, "limiting_endpoint_pmf", reached)
    argv = ["experiment", action, "--sizes", "5", "--samples", "300000",
            "--out", str(tmp_path / "big.csv")]
    with pytest.raises(Reached):
        cli.main(argv)


class TestRefusedBeforeWork:
    @pytest.mark.parametrize("field, low, ok", [
        ("samples", KS_MIN_SAMPLES - 1, KS_MIN_SAMPLES),
        ("walk_samples", KS_MIN_SAMPLES - 1, KS_MIN_SAMPLES),
        ("small_samples", 0, 1),
        ("small_sizes", (), (5,)),
        ("deep_m", 0, 1),
    ])
    def test_config_lower_limits(self, field, low, ok):
        params = ModelParams(1.0, -0.5)
        kwargs = {"samples": 10, field: ok}
        ExperimentConfig(params, (5,), **kwargs)
        kwargs[field] = low
        with pytest.raises(ValueError):
            ExperimentConfig(params, (5,), **kwargs)

    @pytest.mark.parametrize("argv, message", [
        (["lln", "--small-sizes", ""], "small_sizes"),
        (["lln", "--small-sizes", "2"], "small size 2"),
        (["walk", "--samples", "5"], "samples and walk_samples"),
        (["pinning", "--samples", "1"], "samples and walk_samples"),
        # every driver takes strictly increasing sizes; lln checks its
        # margin at the last small order
        (["lln", "--sizes", "50,25"], "sizes must be strictly increasing"),
        (["fluct", "--sizes", "25,25"], "sizes must be strictly increasing"),
        (["lln", "--small-sizes", "11,9,7"], "small_sizes must be strictly"),
        (["lln", "--small-sizes", "9,9"], "small_sizes must be strictly"),
        # the independence KS splits the samples in two halves of at least
        # KS_MIN_SAMPLES each
        (["walk", "--flavor", "stationary", "--samples", str(2 * KS_MIN_SAMPLES - 1)],
         f"samples >= {2 * KS_MIN_SAMPLES}"),
        # size 1 has no increment, no off-diagonal and no strict wedge
        (["walk", "--sizes", "1"], "sizes must be >= 2"),
        (["walk", "--sizes", "1", "--flavor", "stationary"], "sizes must be >= 2"),
        (["fluct", "--sizes", "1"], "sizes must be >= 2"),
        (["lln", "--sizes", "1"], "sizes must be >= 2"),
        # the independence KS needs increments r and r + 1 at every size
        (["walk", "--flavor", "stationary", "--r-max", "1", "--sizes", "5",
          "--samples", "100"], "r_max >= 2 and sizes >= 3"),
        (["walk", "--flavor", "stationary", "--sizes", "2", "--samples", "100"],
         "r_max >= 2 and sizes >= 3"),
        # quenched reads one size; it would drop all but the largest
        (["quenched", "--sizes", "10,20"], "quenched takes one size"),
        # a deep depth ceil(deep_m sqrt(N)) of 0 or less drops the deep check
        (["pinning", "--sizes", "10,20", "--samples", "40", "--deep-m", "-3"],
         "deep_m must be >= 1"),
    ])
    def test_cli_exit_status(self, argv, message, tmp_path, capsys,
                             monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a profile was built before the refusal")

        monkeypatch.setattr(experiments, "_profiles", no_work)
        out = tmp_path / "refused.csv"
        # a --sizes in the case overrides this default one
        argv = ["experiment", argv[0], "--sizes", "5"] + argv[1:] + ["--out", str(out)]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestDegenerateInput:
    """Options that would make a check vacuous or crash exit 2 before any
    environment is drawn."""

    @pytest.mark.parametrize("argv, message", [
        (["verify", "identity", "--envs", "0"], "--envs must be >= 1"),
        (["verify", "identity", "--n", "0"], "--n must be >= 1"),
        (["verify", "sbd", "--envs", "0"], "--envs must be >= 1"),
        (["verify", "sbd", "--k", "0"], "--k must be >= 1"),
        (["verify", "lgv", "--r", "0"], "--r must be >= 1"),
        (["verify", "lgv", "--n", "0"], "--n must be >= 1"),
        (["verify", "lgv", "--envs", "0"], "--envs must be >= 1"),
        (["simulate", "ensemble", "--n", "5", "--kmax", "9"],
         "--kmax must be in [1, 4]"),
        (["simulate", "ensemble", "--n", "5", "--kmax", "0"],
         "--kmax must be in [1, 4]"),
        (["simulate", "path", "--n", "5", "--count", "0"], "--count must be >= 1"),
        (["verify", "gibbs", "--n", "1"], "--n must be >= 2"),
        (["verify", "gibbs", "--kmax", "1"], "--kmax must be in [2, 6]"),
        (["verify", "gibbs", "--kmax", "7"], "--kmax must be in [2, 6]"),
        (["verify", "gibbs", "--envs", str(KS_MIN_SAMPLES - 1)],
         f"--envs must be >= {KS_MIN_SAMPLES}"),
        (["verify", "gibbs", "--significance", "0"], "--significance must lie"),
        (["verify", "gibbs", "--significance", "1"], "--significance must lie"),
    ])
    def test_exit_status(self, argv, message, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("an environment was drawn before the refusal")

        monkeypatch.setattr(cli, "generate_environment", no_work)
        monkeypatch.setattr(cli, "generate_dyadic_environment", no_work)
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err


U64 = 1 << 64


class TestSeedAndStreamRange:
    """A seed, or a run of streams [stream, stream + count), outside
    [0, 2**64) exits 2 before any work; the keys would alias it."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the refusal")

        for module, name in ((cli, "generate_environment"),
                             (cli, "generate_dyadic_environment"),
                             (experiments, "_profiles"),
                             (experiments, "limiting_endpoint_pmf")):
            monkeypatch.setattr(module, name, no_work)
        monkeypatch.delenv("HSLG_LAB_SEED", raising=False)

    @staticmethod
    def _argv(argv, tmp_path):
        if argv[0] == "experiment":
            argv = argv + ["--sizes", "5", "--samples", "20"]
        if argv[0] != "verify":
            argv = argv + ["--out", str(tmp_path / "refused.out")]
        return argv

    @pytest.mark.parametrize("argv, message", [
        (["experiment", "pinning", "--seed", str(U64)], f"got {U64}"),
        (["experiment", "pinning", "--seed", "-1"], "seed must lie in [0, 2**64)"),
        (["env", "gen", "--n", "3", "--seed", "-1"], "seed must lie in [0, 2**64)"),
        (["experiment", "pinning", "--stream", str(U64 - 1)], "with 20 streams"),
        (["experiment", "pinning", "--stream", "-1"], "stream must lie in [0, 2**64)"),
        # quenched numbers its walks from --stream too
        (["experiment", "quenched", "--stream", str(U64 - 300)],
         "with 100000 streams"),
        (["verify", "identity", "--stream", str(U64 - 1), "--envs", "2"],
         "with 2 streams"),
        (["simulate", "endpoint", "--n", "3", "--stream", str(U64)], "stream must lie"),
    ])
    def test_flag_exits_2(self, argv, message, tmp_path, capsys):
        assert cli.main(self._argv(argv, tmp_path)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "refused.out").exists()

    def test_config_and_environment_seed_exit_2(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        assert cli.main(["verify", "lgv", "--config", str(cfg)]) == 2
        monkeypatch.setenv("HSLG_LAB_SEED", "-5")
        assert cli.main(["verify", "lgv"]) == 2
        assert capsys.readouterr().err.count("got -") == 2


def test_stream_run_ending_below_the_top_works(tmp_path, capsys):
    out = tmp_path / "top.csv"
    argv = ["experiment", "pinning", "--stream", str(U64 - 300),
            "--samples", "20", "--sizes", "5", "--out", str(out)]
    assert cli.main(argv) in (0, 1)
    assert out.exists()


# ---------------------------------------------------------------------------
# the options each action reads

MODEL = {"--theta", "--alpha", "--seed", "--stream"}
SIMULATE = MODEL | {"--n", "--flavor", "--out"}
VERIFY = MODEL | {"--n", "--envs"}
EXPERIMENT = MODEL | {"--sizes", "--samples", "--threads", "--out"}
READS = {
    ("env", "gen"): SIMULATE | {"--precision"},
    ("env", "check"): set(),
    ("simulate", "endpoint"): SIMULATE,
    ("simulate", "path"): SIMULATE | {"--count"},
    ("simulate", "ensemble"): SIMULATE | {"--kmax"},
    ("verify", "umap"): set(),
    ("verify", "lgv"): VERIFY | {"--r"},
    ("verify", "identity"): VERIFY,
    ("verify", "sbd"): VERIFY | {"--k"},
    ("verify", "gibbs"): VERIFY | {"--kmax", "--significance"},
    ("experiment", "pinning"): EXPERIMENT | {"--significance", "--k-grid", "--deep-m"},
    ("experiment", "walk"): EXPERIMENT | {"--significance", "--flavor", "--r-max"},
    ("experiment", "quenched"): EXPERIMENT | {"--significance", "--r-max",
                                              "--walk-samples"},
    ("experiment", "fluct"): EXPERIMENT | {"--significance"},
    ("experiment", "lln"): EXPERIMENT | {"--small-sizes", "--small-samples"},
}
ALL_FLAGS = [flag for flag, *_ in cli._OPTIONS]


def _unread(leaf):
    return next(f for f in ALL_FLAGS if f not in READS[leaf])


def _argv(leaf):
    return list(leaf) + (["env.txt"] if leaf == ("env", "check") else [])


class TestOptionSurface:
    @pytest.mark.parametrize("leaf", list(READS), ids="-".join)
    def test_help_lists_only_the_options_read(self, leaf, capsys):
        assert cli.main(list(leaf) + ["--help"]) == 0
        listed = set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M))
        assert listed == READS[leaf] | ({"--config"} if READS[leaf] else set())

    def test_every_leaf_is_covered(self):
        leaves = {(g, a) for g, (_, actions) in cli._ACTIONS.items() for a in actions}
        assert leaves == set(READS)

    @pytest.mark.parametrize("leaf", list(READS), ids="-".join)
    def test_unread_flag_exits_2(self, leaf, capsys):
        flag = _unread(leaf)
        assert cli.main(_argv(leaf) + [flag, "1"]) == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "gibbs", "--k", "2"],             # not --kmax
        ["experiment", "walk", "--r", "2"],          # not --r-max
        ["experiment", "pinning", "--k", "2"],       # not --k-grid
        ["experiment", "fluct", "--n", "5"],         # sizes come as --sizes only
    ])
    def test_abbreviations_and_n_are_refused(self, argv, capsys):
        assert cli.main(argv + ["--out", "refused.csv"]) == 2
        assert f"unrecognized arguments: {argv[2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("leaf", list(READS), ids="-".join)
    def test_unread_config_key_exits_2_with_its_line(self, leaf, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        key = _unread(leaf)[2:].replace("-", "_")
        cfg.write_text(f"# a comment\ntheta = 1\n{key} = 1\n")
        assert cli.main(_argv(leaf) + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        if READS[leaf]:
            assert f"line 3: {' '.join(leaf)} does not read key {key!r}" in err
        else:
            assert "unrecognized arguments: --config" in err

    def test_read_config_key_is_used(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nseed = 4\n")
        assert cli.main(["simulate", "endpoint", "--config", str(cfg)]) == 0
        config_rows = capsys.readouterr().out
        assert cli.main(["simulate", "endpoint", "--n", "3", "--seed", "4"]) == 0
        assert capsys.readouterr().out == config_rows

    @pytest.mark.parametrize("workload, action", [
        (name, act) for name, wl in bench_run.WORKLOADS.items() for act in wl.actions],
        ids=lambda v: v if isinstance(v, str) else v.driver)
    def test_bench_argv_reaches_the_driver_as_traced_builds_it(
            self, workload, action, tmp_path, monkeypatch):
        seen = []

        def capture(config):
            seen.append(config)
            return StatReport(config.theorem, {}, ("x",))

        entry = experiments.EXPERIMENTS[action.driver]
        monkeypatch.setitem(experiments.EXPERIMENTS, action.driver,
                            entry._replace(run=capture))
        argv = action.argv(0) + ["--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 0
        assert seen == [traced.driver_config(argv)]


# The .meta keys of each experiment: the report name, the version and the
# check tally, then theta, alpha, theorem and the options the action reads,
# but --threads, which never changes a number.
RECORD = {"name", "version", "checks", "theta", "alpha", "theorem",
          "sizes", "samples", "seed", "stream", "out"}
RECORDS = {
    "pinning": RECORD | {"significance", "k_grid", "deep_m"},
    "walk": RECORD | {"significance", "flavor", "r_max"},
    "quenched": RECORD | {"significance", "r_max", "walk_samples"},
    "fluct": RECORD | {"significance"},
    "lln": RECORD | {"small_sizes", "small_samples"},
}
TINY = {
    "pinning": [],
    "walk": [],
    "quenched": ["--walk-samples", str(KS_MIN_SAMPLES)],
    "fluct": [],
    "lln": ["--small-sizes", "5", "--small-samples", "2"],
}


class TestRunRecord:
    @pytest.mark.parametrize("action", list(RECORDS))
    def test_meta_names_what_the_action_read(self, action, tmp_path, capsys):
        out = tmp_path / f"{action}.csv"
        argv = ["experiment", action, "--sizes", "5", "--samples",
                str(KS_MIN_SAMPLES), "--threads", "2", "--out", str(out)]
        assert cli.main(argv + TINY[action]) in (0, 1)
        lines = Path(f"{out}.meta").read_text(encoding="utf-8").splitlines()
        meta = dict(line.split(" = ", 1) for line in lines)
        assert len(meta) == len(lines)
        assert set(meta) == RECORDS[action]
        assert meta["theorem"] == action
        assert meta["sizes"] == "[5]"


# The .meta of a simulate action given --out: theta, alpha and the options
# it reads but --out, with --count or --kmax at its resolved default.
SIMULATED = {"checks": "0/0 passed", "theta": "1.0", "alpha": "-0.5", "n": "8",
             "flavor": "standard", "seed": "0", "stream": "0"}


@pytest.mark.parametrize("action, resolved", [
    ("endpoint", {}), ("path", {"count": "100"}), ("ensemble", {"kmax": "2"})],
    ids=["endpoint", "path", "ensemble"])
def test_simulate_meta_names_what_the_action_read(action, resolved, tmp_path, capsys):
    out = tmp_path / f"{action}.csv"
    assert cli.main(["simulate", action, "--n", "8", "--out", str(out)]) == 0
    lines = Path(f"{out}.meta").read_text(encoding="utf-8").splitlines()
    meta = dict(line.split(" = ", 1) for line in lines)
    assert len(meta) == len(lines)
    assert meta.pop("version")
    assert meta == {**SIMULATED, "name": f"simulate_{action}", **resolved}
