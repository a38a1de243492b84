import math

import pytest

from eprbsim import EventStream, write_events
from eprbsim.cli import _parse_grid, main


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
        (["smax", *BASE, "--theta-step", "1e-9"], "theta_step"),
        (["sweep", "--t0-ratio", "1e9", "--w-bins", "1000000000", "--n", "10",
          "--theta-grid", "0:1:3"], "w_bins=1000000000"),
        (["smax", "--t0-ratio", "1e9", "--w-bins", "1000000000", "--n", "21",
          "--theta-step", "0.8"], "268435456-byte limit (w_bins=1000000000"),
        (["simulate", "--t0-ratio", "1e19", "--n", "2000"], "t0_ratio"),
        (["fit", "--t0-ratio", "1e19", "--n", "2000", "--target", "2.5"], "t0_ratio"),
        (["oracle", "--d", "-1"], "d must be a finite real >= 0, got -1.0"),
        (["oracle", "--d", "nan"], "d must be a finite real >= 0, got nan"),
        (["oracle", "--d", "inf"], "d must be a finite real >= 0, got inf"),
        (["fit", *BASE, "--target", "nan"], "target_smax must be finite, got nan"),
        (["fit", *BASE, "--target", "inf"], "target_smax must be finite, got inf"),
        (["simulate", *BASE, "--theta", "nan"], "theta must be finite, got nan"),
        (["simulate", *BASE, "--theta", "inf"], "theta must be finite, got inf"),
    ], ids=["sweep-grid", "oracle-grid", "fit-tolerance", "smax-step-0", "smax-step-nan",
            "smax-step-past-table-limit", "sweep-past-table-limit",
            "smax-selection-past-table-limit", "simulate-t0-ratio",
            "fit-t0-ratio", "oracle-d-negative", "oracle-d-nan", "oracle-d-inf",
            "fit-target-nan", "fit-target-inf", "simulate-theta-nan", "simulate-theta-inf"])
    def test_out_of_range_option_is_usage_error(self, capsys, argv, named):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("usage error:") and named in err

    def test_oracle_overflow_is_a_runtime_error(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--d", "1e6",
                                 "--theta-grid", "0.5:1:2")
        assert code == 2 and out == ""
        assert err == ("error: limit overflows float64 at "
                       "theta=0.5, d=1000000.0\n")

    def test_simulate_refuses_station_files_past_int64(self, capsys, tmp_path):
        # 2 * n * (max_tag + 1) reaches 2**63 at n = 512 and t0_ratio = 2**53
        out_dir = tmp_path / "run"
        code, out, err = run_cli(capsys, "simulate", "--n", "512", "--t0-ratio",
                                 str(2**53), "--out", str(out_dir))
        assert code == 1 and out == "" and not out_dir.exists()
        assert err.startswith("usage error:")
        assert "n_trials=512 at t0_ratio=9007199254740992.0" in err

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

    def test_oracle_runs_every_grid_angle(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--d", "3",
                               "--theta-grid", "0:3.141592653589793:26")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 26
        assert rows[0][1] == rows[-1][1] == "inf"
        for theta, coeff, *_ in rows[1:-1]:
            assert abs(float(coeff) - 4 / (math.pi * math.sin(float(theta)))) < 1e-9

    def test_smax_small(self, capsys):
        code, out, _ = run_cli(capsys, "smax", *BASE, "--w-bins", "4",
                               "--theta-step", str(math.pi / 12))
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert abs(float(values["s_max"])) <= 4.0
        assert 0.0 < float(values["gamma_inf"]) <= 1.0

    def test_smax_leg_without_error(self, capsys):
        code, out, _ = run_cli(capsys, "smax", "--n", "60", "--t0-ratio", "20",
                               "--w-bins", "1", "--seed", "11")
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert values["stderr_s"] == "undefined"

    def test_scenario_cli(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "scenario", "oracle-check",
                               "--out", str(tmp_path), "--n", "20000")
        assert code == 0
        assert (tmp_path / "manifest.txt").exists()

    def test_theta_grid_validation(self, capsys):
        code, _, err = run_cli(capsys, "sweep", *BASE, "--theta-grid", "0:1")
        assert code == 1

    def test_full_range_grid_ends_at_pi(self, capsys):
        # start + (count - 1) * step overshoots pi by an ulp at 35 of these counts
        for count in range(2, 400):
            grid = _parse_grid(f"0:{math.pi!r}:{count}")
            assert len(grid) == count and grid[0] == 0.0 and grid[-1] == math.pi
        code, out, _ = run_cli(capsys, "sweep", *BASE, "--theta-grid", f"0:{math.pi!r}:26")
        assert code == 0 and float(out.splitlines()[-1].split(",")[0]) == math.pi

    @pytest.mark.parametrize("argv, name", [
        (["sweep", *BASE, "--theta-grid", "0:3.14159:5"], "sweep.csv"),
        (["oracle", "--d", "3", "--theta-grid", "0:3.141592653589793:5"], "oracle.csv"),
    ], ids=["sweep", "oracle"])
    def test_printed_table_is_the_written_file(self, capsys, tmp_path, argv, name):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, written, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 0 and written == f"wrote {tmp_path / name}\n"
        assert out.encode() == (tmp_path / name).read_bytes()
