import math

import pytest

from eprbsim import EventStream, write_events
from eprbsim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--t0-ratio", "100", "--n", "20000", "--seed", "9"]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--bogus", "1")
        assert code == 1
        assert "usage error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_invalid_window_rejected(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--w-bins", "0", *BASE)
        assert code == 1
        assert "w_bins" in err

    def test_scenario_invalid_trials_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "scenario", "oracle-check",
                               "--out", str(tmp_path), "--n", "0")
        assert code == 1
        assert err.startswith("usage error:") and "n_trials" in err

    @pytest.mark.parametrize("argv, named", [
        (["sweep", *BASE, "--theta-grid", "0:4:5"], "[0, pi]"),
        (["oracle", "--theta-grid", "0:4:5"], "[0, pi]"),
        (["fit", *BASE, "--target", "2.5", "--tolerance", "0"], "tolerance"),
        (["smax", *BASE, "--theta-step", "0"], "theta_step"),
        (["smax", *BASE, "--theta-step", "nan"], "theta_step"),
    ], ids=["sweep-grid", "oracle-grid", "fit-tolerance", "smax-step-0", "smax-step-nan"])
    def test_out_of_range_option_is_usage_error(self, capsys, argv, named):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("usage error:") and named in err

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_analyze_invalid_window_rejected(self, capsys, tmp_path, via_config):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            write_events(EventStream([0], [0], [1]), path)
        argv = ["analyze", "--file-a", str(a), "--file-b", str(b),
                "--settings-a", "0", "--settings-b", "0"]
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("w_bins = 0\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--w-bins", "0"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "w_bins" in err

    def test_analyze_two_by_two_with_a_missing_cell(self, capsys, tmp_path):
        # station A never uses setting 1, so cells (1, 0) and (1, 1) are absent
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_events(EventStream([0, 4, 8, 12], [0] * 4, [1, -1, 1, -1]), a)
        write_events(EventStream([0, 4, 8, 12], [0, 1, 0, 1], [1, 1, -1, -1]), b)
        code, out, err = run_cli(capsys, "analyze", "--file-a", str(a), "--file-b", str(b),
                                 "--settings-a", "0,1", "--settings-b", "0,1")
        assert code == 0 and err == ""
        assert "s_best = undefined" in out.splitlines()
        assert [line.split(",")[:3] for line in out.splitlines()
                if line.startswith("cell,")] == [["cell", "0", "0"], ["cell", "0", "1"]]

    def test_missing_analyze_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "analyze", "--file-a", str(tmp_path / "none.csv"),
            "--file-b", str(tmp_path / "none2.csv"),
            "--settings-a", "0", "--settings-b", "0")
        assert code == 2

    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", *BASE)
        assert code == 0
        assert "gamma = " in out


class TestSimulate:
    def test_reports_estimates(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--theta", "0", *BASE)
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["e"]) == -1.0
        assert float(values["gamma"]) > 0
        assert values["e_singlet"] == "-1"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "simulate", *BASE)
        _, out2, _ = run_cli(capsys, "simulate", *BASE)
        assert out1 == out2

    def test_out_directory_written_deterministically(self, capsys, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_cli(capsys, "simulate", *BASE, "--out", str(d1))
        run_cli(capsys, "simulate", *BASE, "--out", str(d2))
        for name in ("station_1.csv", "station_2.csv", "estimate.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        assert not (d1 / "hidden.csv").exists()

    def test_debug_hidden_gates_persistence(self, capsys, tmp_path):
        out_dir = tmp_path / "dbg"
        run_cli(capsys, "simulate", *BASE, "--out", str(out_dir), "--debug-hidden")
        lines = (out_dir / "hidden.csv").read_text().splitlines()
        assert lines[0] == "index,sx,sy,sz,lambda1,lambda2"
        assert len(lines) == 20001


class TestConfigPrecedence:
    def test_config_overrides_default(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t0_ratio = 100\nn = 20000\nseed = 9\n")
        _, out_cfg, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        _, out_flags, _ = run_cli(capsys, "simulate", *BASE)
        assert out_cfg == out_flags

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t0_ratio = 100\nn = 20000\nseed = 1\n")
        _, out_mixed, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                                  "--seed", "9")
        _, out_flags, _ = run_cli(capsys, "simulate", *BASE)
        assert out_mixed == out_flags

    @pytest.mark.parametrize("key,flag,value", [
        ("w_bins", "--w-bins", "2"),
        ("d", "--d", "2.0"),
        ("n", "--n", "5000"),
    ])
    def test_each_flag_beats_config(self, capsys, tmp_path, key, flag, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"t0_ratio = 100\nn = 20000\nseed = 9\n{key} = 1\n"
                       if key != "n" else "t0_ratio = 100\nseed = 9\nn = 20000\n")
        _, out_mixed, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                                  flag, value)
        base = [a for a in BASE]
        _, out_flags, _ = run_cli(capsys, "simulate", *base, flag, value)
        assert out_mixed == out_flags

    def test_config_supplies_fit_target(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target = 2.5\n")
        code, out_cfg, _ = run_cli(capsys, "fit", *BASE, "--config", str(cfg))
        assert code == 0
        assert out_cfg == run_cli(capsys, "fit", *BASE, "--target", "2.5")[1]

    def test_missing_fit_target(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 20000\n")
        code, _, err = run_cli(capsys, "fit", "--config", str(cfg))
        assert code == 1
        assert err.startswith("usage error:") and "--target" in err

    def test_bad_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = lots\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert "n" in err

    def test_scenario_bad_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = abc\n")
        code, _, err = run_cli(capsys, "scenario", "oracle-check", "--out",
                               str(tmp_path / "out"), "--config", str(cfg))
        assert code == 1
        assert err.startswith("usage error:") and "'n'" in err


class TestOtherCommands:
    def test_sweep_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", *BASE, "--theta-grid", "0:3.14159:5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,e,stderr_e,gamma,n_coinc"
        assert len(lines) == 6

    def test_oracle_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--d", "3",
                               "--theta-grid", "0:3.141592653589793:5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split(",")[1] == "inf"  # divergent at theta = 0
        mid = lines[3].split(",")  # theta = pi/2 row
        assert abs(float(mid[1]) - 4 / math.pi) < 1e-3

    def test_smax_small(self, capsys):
        code, out, _ = run_cli(capsys, "smax", *BASE, "--w-bins", "4",
                               "--theta-step", str(math.pi / 12))
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert abs(float(values["s_max"])) <= 4.0
        assert 0.0 < float(values["gamma_inf"]) <= 1.0

    def test_scenario_cli(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "scenario", "oracle-check",
                               "--out", str(tmp_path), "--n", "20000")
        assert code == 0
        assert (tmp_path / "manifest.txt").exists()

    def test_theta_grid_validation(self, capsys):
        code, _, err = run_cli(capsys, "sweep", *BASE, "--theta-grid", "0:1")
        assert code == 1
