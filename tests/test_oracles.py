import math
import re

import numpy as np
import pytest

from eprbsim import (
    CoincidenceCounts,
    QuadratureError,
    Setting,
    SimParams,
    estimate,
    gamma_limit,
    quantum_E,
    raw_sign_E,
    s_value,
    smax_quantum,
)
from eprbsim.pipeline import ThetaEngine

from . import reference

SQRT2 = math.sqrt(2.0)


def interior(count: int) -> list[float]:
    """The interior angles of the ``count``-point grid over ``[0, pi]``."""
    return [float(t) for t in np.linspace(0.0, math.pi, count)[1:-1]]


class TestQuantumE:
    def test_parallel(self):
        a = Setting.from_polar(0.8)
        assert quantum_E(a, a) == -1.0

    def test_orthogonal(self):
        assert abs(quantum_E(Setting.from_polar(0), Setting.from_polar(math.pi / 2))) < 1e-15

    def test_quarter_turn(self):
        v = quantum_E(Setting.from_polar(0), Setting.from_polar(math.pi / 4))
        assert abs(v + SQRT2 / 2) < 1e-12


class TestRawSignE:
    def test_endpoints(self):
        assert raw_sign_E(0.0) == -1.0
        assert raw_sign_E(math.pi) == 1.0
        assert abs(raw_sign_E(math.pi / 2)) < 1e-15
        assert abs(raw_sign_E(math.pi / 4) + 0.5) < 1e-15

    def test_range_check(self):
        with pytest.raises(ValueError):
            raw_sign_E(-0.1)
        with pytest.raises(ValueError):
            raw_sign_E(3.5)

    def test_matches_simulation_with_window_disabled(self):
        # window wider than the delay bound accepts every trial
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**6, seed=14)
        engine = ThetaEngine(p)
        est = engine.estimate_at(math.pi / 4, w_bins=p.max_tag + 1)
        assert est.gamma == 1.0
        assert abs(est.e - raw_sign_E(math.pi / 4)) < 3 * est.stderr_e


class TestGammaLimit:
    def test_reference_value_at_right_angle(self):
        v = gamma_limit(math.pi / 2, 3.0)
        assert abs(v - 4 / math.pi) < 1e-3
        assert abs(v - 4 / math.pi) < 1e-6  # quadrature is far tighter than required

    @pytest.mark.parametrize("thetas", [[math.pi / 6], [math.pi / 3], [math.pi / 2],
                                        interior(26), interior(37)],
                             ids=["pi/6", "pi/3", "pi/2", "grid-26", "grid-37"])
    def test_closed_form_at_cubic_exponent(self, thetas):
        # for d = 3 the sphere average is 4 / (pi sin theta)
        for theta in thetas:
            assert abs(gamma_limit(theta, 3.0) - 4 / (math.pi * math.sin(theta))) < 1e-9

    @pytest.mark.parametrize("theta", [1e-3, 1e-6, 1e-8, 9e-10, 1e-15])
    def test_near_colinear_cubic_exponent(self, theta):
        assert gamma_limit(theta, 3.0) == pytest.approx(4 / (math.pi * math.sin(theta)),
                                                        rel=1e-8)

    @pytest.mark.parametrize("theta", [0.0, math.pi], ids=["0", "pi"])
    @pytest.mark.parametrize("d", [0.0, 1.0, 1.5])
    def test_colinear_closed_form_below_quadratic_exponent(self, theta, d):
        # c1^2 = c2^2 with c uniform on [-1, 1]: int_0^1 (1 - c^2)^(-d/2) dc
        expected = math.sqrt(math.pi) / 2 * math.gamma(1 - d / 2) / math.gamma(1.5 - d / 2)
        assert gamma_limit(theta, d) == pytest.approx(expected, rel=1e-15)

    def test_matches_nested_sphere_quadrature(self):
        # the tests' nested adaptive rule, at (theta, d) points on each side of
        # d = 2 and near and at colinear settings; it costs about half a second a point
        for theta, d in [(0.3, 5.0), (1.0, 0.5), (2.0, 2.0), (1e-3, 1.0),
                         (math.pi, 1.5), (0.0, 1.0)]:
            expected = reference.gamma_limit(theta, d)
            assert gamma_limit(theta, d) == pytest.approx(expected, rel=1e-8)

    def test_divergence_at_colinear_settings(self):
        assert gamma_limit(0.0, 3.0) == math.inf
        assert gamma_limit(math.pi, 3.0) == math.inf
        assert gamma_limit(0.0, 2.0) == math.inf

    def test_integrable_at_colinear_for_small_exponent(self):
        v = gamma_limit(0.0, 1.0)
        assert math.isfinite(v) and v > 1.0

    def test_flat_exponent_gives_unity(self):
        assert abs(gamma_limit(math.pi / 2, 0.0) - 1.0) < 1e-9

    def test_minimum_at_right_angle(self):
        grid = np.linspace(math.pi / 6, 5 * math.pi / 6, 9)
        values = [gamma_limit(float(t), 3.0) for t in grid]
        assert int(np.argmin(values)) == 4  # the midpoint, pi/2
        assert abs(min(values) - 4 / math.pi) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_limit(-0.2, 3.0)
        with pytest.raises(ValueError):
            gamma_limit(0.5, -1.0)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -1.0])
    def test_exponent_refused_as_by_sim_params(self, d):
        with pytest.raises(ValueError) as refused:
            SimParams(w_bins=1, t0_ratio=10.0, d=d, n_trials=10)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            gamma_limit(1.0, d)

    @pytest.mark.parametrize("theta, d", [(1.0, 2000.0), (1.0, 1e6), (math.pi / 2, 1e300),
                                          (1e-3, 100.0), (5e-324, 3.0)])
    def test_overflow_is_a_named_quadrature_error(self, theta, d):
        with pytest.raises(QuadratureError, match=re.escape(f"theta={theta!r}, d={d!r}")):
            gamma_limit(theta, d)


class TestSmaxQuantum:
    def test_value(self):
        assert abs(smax_quantum().value - 2 * SQRT2) < 1e-12

    def test_self_consistency_with_s_value(self):
        qm = smax_quantum()
        a, b, c, d = (Setting.from_polar(t) for t in qm.angles)
        s = s_value(quantum_E(a, c), quantum_E(a, d), quantum_E(b, c), quantum_E(b, d))
        assert abs(abs(s) - qm.value) < 1e-12

    def test_local_optimality(self):
        qm = smax_quantum()

        def magnitude(angles):
            a, b, c, d = (Setting.from_polar(t) for t in angles)
            return abs(s_value(quantum_E(a, c), quantum_E(a, d),
                               quantum_E(b, c), quantum_E(b, d)))

        base = magnitude(qm.angles)
        for i in range(4):
            for eps in (+0.1, -0.1):
                perturbed = list(qm.angles)
                perturbed[i] += eps
                assert magnitude(perturbed) < base


class TestSimulatorAgainstOracles:
    def test_singlet_limit_on_coarse_grid(self):
        # small window, long delay range: E approaches -cos theta
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**6, seed=123)
        grid = np.linspace(0.0, math.pi, 13)
        for t, cells in zip(grid, ThetaEngine(p).block_counts_over(grid, [p.w_bins])[0]):
            est = estimate(CoincidenceCounts.from_cells(cells, p.n_trials), cells)
            assert abs(est.e + math.cos(t)) <= 0.02

    @pytest.mark.slow
    def test_gamma_converges_to_limit_coefficient(self):
        # scaled coincidence frequency approaches the quadrature value as the
        # delay range grows (trials scaled to keep the estimator resolution)
        grid = [math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6]
        limits = np.array([gamma_limit(t, 3.0) for t in grid])
        errs = []
        for t0, n in ((100.0, 2 * 10**5), (1000.0, 2 * 10**6), (10000.0, 2 * 10**7)):
            p = SimParams(w_bins=1, t0_ratio=t0, d=3.0, n_trials=n, seed=4)
            cells = ThetaEngine(p).block_counts_over(grid, [p.w_bins], 1)[0]
            scaled = np.array([estimate(CoincidenceCounts.from_cells(c, n)).gamma * t0
                               for c in cells])
            errs.append(float(np.mean(np.abs(scaled - limits))))
        assert errs[0] > errs[1] > errs[2]
