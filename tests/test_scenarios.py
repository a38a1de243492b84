import math
from dataclasses import replace

import numpy as np
import pytest

from eprbsim import (
    FitError,
    SimParams,
    UsageError,
    cosine_fit_max_z,
    fit_window,
    run_scenario,
    sweep_theta,
)
from eprbsim import scenarios
from eprbsim.inequalities import SReport, ViolationFlags
from eprbsim.scenarios import FIGURE_GRID
from eprbsim.ttag_io import read_manifest, verify_manifest


class TestSweepTheta:
    def test_antiparallel_settings(self):
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**6, seed=2)
        sweep = sweep_theta(p, [0.0, math.pi / 2, math.pi])
        last = sweep.rows[-1]
        assert abs(last.e - 1.0) <= 0.02
        assert sweep.rows[0].e == -1.0  # parallel settings: exact anticorrelation

    def test_grid_validation(self):
        p = SimParams(w_bins=1, t0_ratio=10.0, d=3.0, n_trials=100, seed=1)
        with pytest.raises(ValueError):
            sweep_theta(p, [0.0, 4.0])
        with pytest.raises(ValueError):
            sweep_theta(p, [1.0, 0.5])

    def test_rows_align_with_grid(self):
        p = SimParams(w_bins=2, t0_ratio=50.0, d=3.0, n_trials=5000, seed=4)
        grid = [0.0, 1.0, 2.0, math.pi]
        sweep = sweep_theta(p, grid)
        assert [r.theta for r in sweep.rows] == grid
        assert all(0.0 <= r.gamma <= 1.0 for r in sweep.rows)

    def test_stability_when_trials_double(self):
        # beyond half a million trials the curve moves by less than its
        # quoted errors (3 sigma pointwise)
        grid = list(np.linspace(0.0, math.pi, 13))
        base = SimParams(w_bins=16, t0_ratio=1000.0, d=3.0,
                         n_trials=5 * 10**5, seed=18)
        small = sweep_theta(base, grid)
        big = sweep_theta(replace(base, n_trials=10**6), grid)
        for r_small, r_big in zip(small.rows[1:], big.rows[1:]):
            sigma = math.hypot(r_small.stderr_e, r_big.stderr_e)
            assert abs(r_small.e - r_big.e) <= 3 * sigma


class TestCosineFit:
    def test_pure_cosine_accepted(self):
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**6, seed=123)
        sweep = sweep_theta(p, FIGURE_GRID)
        assert cosine_fit_max_z(sweep) < 5.0

    def test_wide_window_rejected(self):
        p = SimParams(w_bins=285, t0_ratio=1000.0, d=3.0, n_trials=10**6, seed=123)
        sweep = sweep_theta(p, FIGURE_GRID)
        assert cosine_fit_max_z(sweep) >= 5.0


class TestSingletCalibrationCurve:
    def test_small_window_curve_tracks_quantum_prediction(self):
        # figure-resolution grid; trials sized so the estimator resolves 0.02
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=4 * 10**6,
                      seed=_FIG2_SEED)
        sweep = sweep_theta(p, FIGURE_GRID)
        dev = max(abs(r.e + math.cos(r.theta)) for r in sweep.rows)
        assert dev < 0.02


_FIG2_SEED = 16


FAST = math.pi / 24  # theta_step of a quick search


class TestFitWindow:
    def test_deterministic(self):
        p = SimParams(w_bins=1, t0_ratio=50.0, d=3.0, n_trials=10**5, seed=10)
        a = fit_window(2.3, p, tolerance=0.05, theta_step=FAST)
        b = fit_window(2.3, p, tolerance=0.05, theta_step=FAST)
        assert a == b

    def test_trace_is_monotone_non_increasing(self):
        p = SimParams(w_bins=1, t0_ratio=50.0, d=3.0, n_trials=10**5, seed=10)
        fit = fit_window(2.3, p, tolerance=0.05, theta_step=FAST)
        ws = [w for w, _ in fit.trace]
        ss = [s for _, s in fit.trace]
        assert ws == sorted(ws)
        for s1, s2 in zip(ss, ss[1:]):
            assert s2 <= s1 + 0.05  # noise slack

    def test_target_above_achievable(self):
        p = SimParams(w_bins=1, t0_ratio=50.0, d=3.0, n_trials=10**4, seed=10)
        with pytest.raises(FitError, match="above achievable"):
            fit_window(3.9, p, theta_step=FAST)

    def test_target_below_achievable(self):
        p = SimParams(w_bins=1, t0_ratio=50.0, d=3.0, n_trials=10**4, seed=10)
        with pytest.raises(FitError, match="below achievable"):
            fit_window(1.2, p, theta_step=FAST)

    def test_bad_tolerance(self):
        p = SimParams(w_bins=1, t0_ratio=50.0, d=3.0, n_trials=100, seed=1)
        with pytest.raises(ValueError):
            fit_window(2.5, p, tolerance=0.0)


def _scripted_search(monkeypatch, table, default):
    """Replace ``maximize_S`` by a lookup of ``(s, stderr_s)`` per window."""
    def fake(params, theta_step):
        s, se = table.get(params.w_bins) or default(params.w_bins)
        return SReport(s=s, gamma_inf=0.5, bound_trivial=4.0, bound_chsh=2.0,
                       bound_lg=8.0, flags=ViolationFlags(True, False, False),
                       stderr_s=se)
    monkeypatch.setattr(scenarios, "maximize_S", fake)


class TestFitWindowDecisions:
    P = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=100, seed=1)

    @staticmethod
    def _falling(start):
        return lambda w: (start - 0.5 * (w - 1) / 999, 0.035)

    def test_noisy_first_window_below_target_is_not_out_of_range(self, monkeypatch):
        _scripted_search(monkeypatch, {1: (2.7104, 0.035)}, self._falling(2.75))
        fit = fit_window(2.73, self.P)
        assert abs(fit.achieved_smax - 2.73) <= 0.01
        # without its error bar the same S(1) is out of range
        _scripted_search(monkeypatch, {1: (2.7104, 0.0)}, self._falling(2.75))
        with pytest.raises(FitError, match="above achievable"):
            fit_window(2.73, self.P)

    def test_bracket_returns_closer_member_within_its_error(self, monkeypatch):
        table = {1: (2.8428, 0.033), 2: (2.8097, 0.033)}
        _scripted_search(monkeypatch, table, self._falling(2.80))
        fit = fit_window(2.83, self.P)
        assert fit.fitted_w_bins == 1
        assert fit.achieved_smax == 2.8428

    def test_bracket_without_error_still_raises(self, monkeypatch):
        table = {1: (2.8428, 0.0), 2: (2.8097, 0.0)}
        _scripted_search(monkeypatch, table, self._falling(2.80))
        with pytest.raises(FitError, match="no bracket member"):
            fit_window(2.83, self.P)

    def test_noise_rise_keeps_the_bracket_answer(self, monkeypatch):
        # S(250) lies far above S(125), but the bisection's path is unchanged
        _scripted_search(monkeypatch, {125: (1.0, 0.035)}, self._falling(2.75))
        fit = fit_window(2.73, self.P)
        assert fit.fitted_w_bins == 40
        assert fit.achieved_smax == pytest.approx(2.73048, abs=1e-5)
        assert fit.iterations == 12


class TestFitWindowTargets:
    @pytest.mark.slow
    def test_fit_to_ion_trap_value(self):
        # crossing sits near w=287 with a comfortably large coincidence floor
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**6, seed=4)
        fit = fit_window(2.25, p)
        assert 242 <= fit.fitted_w_bins <= 328  # 285 within 15 percent
        assert abs(fit.achieved_smax - 2.25) <= 0.01
        assert fit.gamma_inf >= 0.52


class TestRunScenario:
    OVERRIDES = {"n_trials": 20000, "seed": 5}

    def test_unknown_scenario_lists_ids(self, tmp_path):
        with pytest.raises(UsageError, match="fig1"):
            run_scenario("nope", tmp_path)

    def test_fig1_writes_three_curves(self, tmp_path):
        run = run_scenario("fig1", tmp_path, self.OVERRIDES)
        assert sorted(run.files) == ["gamma_w1.csv", "gamma_w16.csv", "gamma_w285.csv"]
        assert verify_manifest(run.manifest_path) == []
        manifest = read_manifest(run.manifest_path)
        assert manifest.scenario == "fig1"
        assert manifest.params["seed"] == "5"

    def test_fig2_includes_reference_column(self, tmp_path):
        run = run_scenario("fig2", tmp_path, self.OVERRIDES)
        header = (tmp_path / "e_w1.csv").read_text().splitlines()[0]
        assert header.split(",") == ["theta", "e", "stderr_e", "gamma",
                                     "n_coinc", "e_singlet"]
        rows = (tmp_path / "e_w1.csv").read_text().splitlines()[1:]
        assert len(rows) == len(FIGURE_GRID)
        last = rows[-1].split(",")
        assert abs(float(last[-1]) - 1.0) < 1e-15  # -cos(pi)

    def test_rerun_reproduces_digests(self, tmp_path):
        run1 = run_scenario("fig1", tmp_path / "a", self.OVERRIDES)
        run2 = run_scenario("fig1", tmp_path / "b", self.OVERRIDES)
        d1 = read_manifest(run1.manifest_path).output_digests
        d2 = read_manifest(run2.manifest_path).output_digests
        assert d1 == d2

    def test_oracle_check_table(self, tmp_path):
        run = run_scenario("oracle-check", tmp_path, self.OVERRIDES)
        assert "oracle_check.csv" in run.files
        lines = (tmp_path / "oracle_check.csv").read_text().splitlines()
        assert lines[0] == "theta,limit_coeff,sim_gamma_t0,difference"
        assert len(lines) == 10

    def test_weihs_compare_bundle(self, tmp_path):
        run = run_scenario("weihs-compare", tmp_path, self.OVERRIDES)
        assert "station_a.csv" in run.files and "analysis_summary.csv" in run.files
        summary = (tmp_path / "analysis_summary.csv").read_text()
        assert "gamma_min_pairs" in summary
        assert "gamma_total_fraction" in summary
        assert verify_manifest(run.manifest_path) == []
