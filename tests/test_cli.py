"""Command-line interface tests: argument and config-file parsing plus a
small end-to-end run with artifact and determinism checks."""

import csv
import importlib.metadata
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from qcthreshold import cli, oracles, sweep
from qcthreshold.cli import (_OPTIONS, _switch, build_config, load_config_file,
                             main, parse_d_rule)
from qcthreshold.core import momentum_marginal
from qcthreshold.errors import InvalidParameterError, ResolutionError
from qcthreshold.evolver import EvolverConfig

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ORACLE_ARGV = ["--h-list", "0.2", "--d-rule", "abs:", "--oracle",
               "--grid", "256x512"]


def _installed():
    try:
        importlib.metadata.distribution("qcthreshold")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


class TestDRuleParsing:
    def test_exponent_rule(self):
        assert parse_d_rule("exp:1.0,2.0") == ("exponent", (1.0, 2.0))

    def test_absolute_rule(self):
        assert parse_d_rule("abs:0.01") == ("absolute", (0.01,))

    def test_trailing_comma_tolerated(self):
        assert parse_d_rule("exp:1.5,") == ("exponent", (1.5,))

    @pytest.mark.parametrize("bad", ["1.0,2.0", "scaled:1.0", "exp:x"])
    def test_invalid(self, bad):
        with pytest.raises((InvalidParameterError, ValueError)):
            parse_d_rule(bad)


class TestConfigFile:
    def test_parse_and_merge(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# sweep setup\n"
            "h-list = 0.2, 0.1\n"
            "d-rule = exp:1.0,2.0\n"
            "grid = 256x512\n"
            "substeps = 80\n"
            "figures = true\n"
            "out = results\n")
        cfg = build_config(["--config", str(cfg_file)])
        assert cfg.h_list == (0.2, 0.1)
        assert cfg.d_rule == ("exponent", (1.0, 2.0))
        assert (cfg.n_u, cfg.n_v) == (256, 512)
        assert cfg.substeps == 80
        assert cfg.figures is True

    def test_cli_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("substeps = 80\ntau2 = 2.0\n")
        cfg = build_config(["--config", str(cfg_file), "--substeps", "40"])
        assert cfg.substeps == 40
        assert cfg.tau2 == 2.0

    def test_malformed_line(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("substeps 80\n")
        with pytest.raises(InvalidParameterError):
            load_config_file(cfg_file)

    @pytest.mark.parametrize("line", ["substep = 80", "figures = ture"])
    def test_unknown_key_or_unreadable_value(self, tmp_path, line):
        # a misspelt key or switch value must not be dropped or read as off
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        with pytest.raises(InvalidParameterError, match=line.split()[0]):
            build_config(["--config", str(cfg_file)])
        assert main(["--config", str(cfg_file)]) == 2

    def test_defaults(self):
        cfg = build_config([])
        assert cfg.h_list == (0.2, 0.1, 0.05)
        assert cfg.out_dir == ""
        assert cfg.oracle is False


class TestOptionTable:
    #: a value other than the default for every option
    VALUES = {"h_list": "0.2,0.1", "d_rule": "abs:0.01", "tau2": "2.0",
              "grid": "256x512", "substeps": "80", "out": "results",
              "seed": "3", "oracle": "true", "figures": "true"}

    @pytest.mark.parametrize("key", list(_OPTIONS))
    def test_flag_and_config_key_agree(self, tmp_path, key):
        keys = (key, "out") if key == "figures" else (key,)  # needs --out
        argv, lines = [], ""
        for k in keys:
            flag = "--" + k.replace("_", "-")
            switch = _OPTIONS[k][0] is _switch
            argv += [flag] if switch else [flag, self.VALUES[k]]
            lines += f"{k} = {self.VALUES[k]}\n"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(lines)
        from_flags = build_config(argv)
        assert from_flags == build_config(["--config", str(cfg_file)])
        assert from_flags != build_config([])

    def test_help_lists_each_flag_once(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
        want = ["--config"] + ["--" + k.replace("_", "-") for k in _OPTIONS]
        assert sorted(listed) == sorted(want)


class TestMain:
    def test_end_to_end_run(self, tmp_path):
        out = tmp_path / "results"
        args = ["--h-list", "0.2", "--d-rule", "exp:1.0,1.3333",
                "--grid", "256x512", "--substeps", "60",
                "--out", str(out), "--figures"]
        assert main(args) == 0
        for name in ("records.csv", "summary.json", "bounds.csv",
                     "fig2.svg", "fig3.svg"):
            assert (out / name).exists(), name
        payload = json.loads((out / "summary.json").read_text())
        assert len(payload["records"]) == 3  # D = 0 plus two exponents
        assert "crossings" in payload

    def test_determinism_modulo_wall_time(self, tmp_path):
        args = lambda out: ["--h-list", "0.2", "--d-rule", "exp:1.3333",
                            "--grid", "256x512", "--substeps", "60",
                            "--out", str(out)]
        assert main(args(tmp_path / "a")) == 0
        assert main(args(tmp_path / "b")) == 0
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()
        assert (tmp_path / "a" / "bounds.csv").read_bytes() == \
            (tmp_path / "b" / "bounds.csv").read_bytes()

        def rows_without_wall_time(path):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            i = rows[0].index("wall_time")
            return [r[:i] + r[i + 1:] for r in rows]

        assert rows_without_wall_time(tmp_path / "a" / "records.csv") == \
            rows_without_wall_time(tmp_path / "b" / "records.csv")

    def test_config_error_exit_code(self, tmp_path):
        assert main(["--config", str(tmp_path / "missing.cfg")]) == 2
        assert main(["--d-rule", "nonsense"]) == 2
        assert main(["--grid", "512"]) == 2
        assert main(["--h-list", "0.2,x"]) == 2
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tau2 = abc\n")
        assert main(["--config", str(cfg_file)]) == 2
        # below 2 points per axis, or too coarse to hold the initial state
        for grid in ("0x0", "1x1", "-4x8", "8x8"):
            assert main(["--h-list", "0.2", "--d-rule", "abs:",
                         f"--grid={grid}"]) == 2

    def test_negative_seed_exit_code(self, capsys):
        # rejected before the sweep runs, not by the Langevin sampler after it
        assert main(ORACLE_ARGV + ["--seed=-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: seed -1")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        # every sweep runs D = 0, so an absolute 0 repeats it
        (["--d-rule", "abs:0,0.01"], "sweep point h=0.2, D=0.0 repeats"),
        (["--h-list", "0.2,0.2"], "sweep point h=0.2, D=0.0 repeats"),
        (["--d-rule", "exp:1,1"], "sweep point h=0.2, D=0.2 repeats"),
        (["--figures"], "--figures needs --out"),
        (["--substeps", "0"], "substeps 0 must be >= 1"),
        # out-of-range h or D, rejected before the pool starts
        (["--h-list", "0.2,1.5"], "h 1.5 must lie in (0, 1)"),
        (["--h-list", "nan"], "h nan must lie in (0, 1)"),
        (["--d-rule", "abs:-1"], "D -1.0 at h=0.2 must be finite and >= 0"),
        (["--d-rule", "exp:nan"], "D nan at h=0.2 must be finite and >= 0"),
        (["--d-rule", "exp:-1000"], "D = h^p overflows"),
    ], ids=["abs-zero", "repeated-h", "repeated-exponent", "figures-no-out",
            "substeps-zero", "h-above-1", "h-nan", "abs-negative", "exp-nan",
            "exp-overflow"])
    def test_rejected_before_any_work(self, monkeypatch, capsys, argv,
                                      message):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_experiment", no_sweep)
        assert main(["--h-list", "0.2"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("tau2", ["nan", "inf"])
    def test_non_finite_tau2_exit_code(self, tau2, capsys):
        argv = ["--h-list", "0.2", "--d-rule", "abs:", "--tau2", tau2,
                "--grid", "256x512"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_solver_failure_exit_code(self, capsys):
        # 64 u-points cannot hold the kicked state
        argv = ["--h-list", "0.2", "--d-rule", "abs:1.0", "--grid", "64x128"]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ResolutionError: ")

    def test_tau2_2_runs(self, tmp_path, capsys):
        # at tau2 = 2 the wide-grid point D = h asks the Airy closed form
        # for momenta far below its support
        argv = ["--h-list", "0.2", "--d-rule", "exp:1.0", "--tau2", "2",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "2 sweep points, 2 bound-check passes" in capsys.readouterr().out
        with open(tmp_path / "records.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_oracle_run_passes(self, capsys):
        assert main(ORACLE_ARGV) == 0
        assert "ORACLE FAIL" not in capsys.readouterr().err

    def test_oracle_failure_exit_code(self, monkeypatch, capsys):
        # each oracle's output moved off its reference: the Schrodinger
        # density by 1 % of its mass, the Langevin momenta by 1.0 (from
        # 2 000 samples, so that the failing run stays quick)
        momentum_distribution = oracles.momentum_distribution
        langevin_sample = oracles.langevin_sample

        def off_density(psi, h):
            md = momentum_distribution(psi, h)
            return replace(md, q=1.01 * md.q)

        def off_sample(m, schedule, params, seed):
            ens = langevin_sample(2_000, schedule, params, seed=seed)
            return ens[:3] + (replace(ens[3], p=ens[3].p + 1.0),)

        monkeypatch.setattr(oracles, "momentum_distribution", off_density)
        monkeypatch.setattr(oracles, "langevin_sample", off_sample)
        assert main(ORACLE_ARGV) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("ORACLE FAIL h=0.2: Schrodinger")
        assert err[1].startswith("ORACLE FAIL h=0.2: Langevin")

    def test_oracle_checks_the_swept_configuration(self, monkeypatch):
        # the evolver run that the Langevin histogram is held against uses
        # the sweep's tau2, grid and stretch panels (Langevin shrunk to
        # 2 000 samples, so that the run stays quick; at tau2 = 2 the D = 0
        # point needs 512 u-points); the sweep's own D = 0 evolve is not
        # recorded
        seen = []
        evolve = sweep.evolve
        langevin_sample = oracles.langevin_sample

        def recorded(field, schedule, params, config=EvolverConfig()):
            if params.D == 0.2 ** (4.0 / 3.0):
                seen.append((field.values.shape, schedule.tau2,
                             config.substeps_per_unit))
            return evolve(field, schedule, params, config)

        def small_sample(m, schedule, params, seed):
            return langevin_sample(2_000, schedule, params, seed=seed)

        monkeypatch.setattr(sweep, "evolve", recorded)
        monkeypatch.setattr(oracles, "langevin_sample", small_sample)
        argv = ["--h-list", "0.2", "--d-rule", "abs:", "--oracle",
                "--tau2", "2", "--grid", "512x512", "--substeps", "25"]
        assert main(argv) in (0, 1)
        assert seen == [((512, 512), 2.0, 25)]

    def test_oracle_histogram_covers_the_marginal(self, monkeypatch):
        # at tau2 = 2 the classical marginal reaches far past p = 16; the
        # histogram window grows in 0.25-wide bins until at most 1e-4 of
        # its mass lies outside (Langevin shrunk to 2 000 samples; the
        # sweep's own D = 0 evolve is not recorded)
        finals, windows = [], []
        evolve = sweep.evolve
        langevin_sample = oracles.langevin_sample
        histogram_distribution = oracles.histogram_distribution

        def recorded_evolve(field, schedule, params, config=EvolverConfig()):
            result = evolve(field, schedule, params, config)
            if params.D == 0.2 ** (4.0 / 3.0):
                finals.append(momentum_marginal(result.final))
            return result

        def small_sample(m, schedule, params, seed):
            return langevin_sample(2_000, schedule, params, seed=seed)

        def recorded_histogram(samples, bins, lo, hi):
            windows.append((bins, lo, hi))
            return histogram_distribution(samples, bins, lo, hi)

        monkeypatch.setattr(sweep, "evolve", recorded_evolve)
        monkeypatch.setattr(oracles, "langevin_sample", small_sample)
        monkeypatch.setattr(oracles, "histogram_distribution",
                            recorded_histogram)
        argv = ["--h-list", "0.2", "--d-rule", "abs:", "--oracle",
                "--tau2", "2", "--grid", "512x512", "--substeps", "25"]
        assert main(argv) in (0, 1)
        [sp], [(bins, lo, hi)] = finals, windows
        assert (lo, (hi - lo) / bins) == (-8.0, 0.25)
        cell = sp.q * sp.dp

        def stray(top):
            return cell[(sp.p < lo) | (sp.p >= top)].sum()

        assert stray(hi) <= 1e-4 < stray(hi - 0.25)

    def test_oracle_solver_failure_exit_code(self, monkeypatch, capsys):
        # the oracles run on the sweep's grid and tau2, where they can fail
        def unresolved(*args):
            raise ResolutionError("cubic phase undersampled")

        monkeypatch.setattr(oracles, "schrodinger_closed", unresolved)
        assert main(ORACLE_ARGV) == 3
        assert capsys.readouterr().err.startswith("error: ResolutionError: ")

    @pytest.mark.skipif(not _installed(),
                        reason="qcthreshold is not installed (no distribution "
                               "metadata); install it to check its entry point")
    def test_console_script_registered(self):
        from importlib.metadata import entry_points
        eps = entry_points(group="console_scripts")
        names = {ep.name for ep in eps}
        assert "qcthreshold" in names

    def test_console_script_declared(self):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["qcthreshold"] == "qcthreshold.cli:main"
        module, _, attr = scripts["qcthreshold"].partition(":")
        assert getattr(importlib.import_module(module), attr) is main
