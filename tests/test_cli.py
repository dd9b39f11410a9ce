"""Exit statuses of the command-line front end for inputs it must refuse."""
import pytest

from hslg_lab import cli, experiments
from hslg_lab.experiments import CI_STRIDE, ExperimentConfig
from hslg_lab.special import ModelParams
from hslg_lab.stats import KS_MIN_SAMPLES, RESAMPLES


class TestPathCodeWidth:
    def test_largest_size_prints_codes(self, capsys):
        assert cli.main(["simulate", "path", "--n", "32", "--count", "5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 5
        assert all(int(r.split(",")[1]) >= 0 for r in rows)

    def test_overflowing_size_is_a_usage_error(self, capsys):
        assert cli.main(["simulate", "path", "--n", "33", "--count", "5"]) == 2
        assert "n <= 32" in capsys.readouterr().err


class TestBootstrapLanes:
    LIMIT = CI_STRIDE // RESAMPLES

    @pytest.mark.parametrize("field", ["samples", "small_samples"])
    def test_config_rejects_overlapping_lanes(self, field):
        params = ModelParams(1.0, -0.5)
        kwargs = {"samples": 10, field: self.LIMIT}
        ExperimentConfig(params, (5,), **kwargs)
        kwargs[field] = self.LIMIT + 1
        with pytest.raises(ValueError):
            ExperimentConfig(params, (5,), **kwargs)

    def test_cli_exit_status(self, tmp_path, capsys):
        out = tmp_path / "pinning.csv"
        argv = ["experiment", "pinning", "--sizes", "5", "--samples",
                str(self.LIMIT + 1), "--out", str(out)]
        assert cli.main(argv) == 2
        assert "268435" in capsys.readouterr().err
        assert not out.exists()


class TestRefusedBeforeWork:
    @pytest.mark.parametrize("field, low, ok", [
        ("samples", KS_MIN_SAMPLES - 1, KS_MIN_SAMPLES),
        ("walk_samples", KS_MIN_SAMPLES - 1, KS_MIN_SAMPLES),
        ("small_samples", 1, 2),
        ("small_sizes", (), (5,)),
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
        # the drivers compare sizes in the order given: the lln trends,
        # fluct's largest-size windows and lln's margin at the last order
        (["lln", "--sizes", "50,25"], "sizes must be strictly increasing"),
        (["fluct", "--sizes", "25,25"], "sizes must be strictly increasing"),
        (["lln", "--small-sizes", "11,9,7"], "small_sizes must be strictly"),
        (["lln", "--small-sizes", "9,9"], "small_sizes must be strictly"),
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
