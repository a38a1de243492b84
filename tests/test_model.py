import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprbsim import Setting, SimParams, run_pairs, uniform_block
from eprbsim.model import DRAWS_PER_TRIAL, _hidden_arrays

from . import reference


def rotation(ax_deg=25.0, az_deg=40.0) -> np.ndarray:
    """A fixed non-trivial rotation (about x, then about z)."""
    a = math.radians(ax_deg)
    b = math.radians(az_deg)
    rx = np.array([[1, 0, 0], [0, math.cos(a), -math.sin(a)], [0, math.sin(a), math.cos(a)]])
    rz = np.array([[math.cos(b), -math.sin(b), 0], [math.sin(b), math.cos(b), 0], [0, 0, 1]])
    return rz @ rx


class TestSimParams:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SimParams(w_bins=0, t0_ratio=1000, d=3, n_trials=10)
        with pytest.raises(ValueError):
            SimParams(w_bins=1, t0_ratio=0.0, d=3, n_trials=10)
        with pytest.raises(ValueError):
            SimParams(w_bins=1, t0_ratio=1000, d=-0.5, n_trials=10)
        with pytest.raises(ValueError):
            SimParams(w_bins=1, t0_ratio=1000, d=3, n_trials=0)
        with pytest.raises(ValueError):
            SimParams(w_bins=1, t0_ratio=1000, d=3, n_trials=10, seed=2**64)
        with pytest.raises(ValueError):
            SimParams(w_bins=1, t0_ratio=1000, d=3, n_trials=10, seed=1.5)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=str)
    @pytest.mark.parametrize("field", ["w_bins", "n_trials", "seed"])
    def test_rejects_non_finite_integers(self, field, value):
        fields = dict(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10, seed=1)
        with pytest.raises(ValueError, match=field):
            SimParams(**{**fields, field: value})

    def test_max_tag(self):
        assert SimParams(1, 1000.0, 3, 1).max_tag == 1000
        assert SimParams(1, 1.025, 3, 1).max_tag == 2

    @pytest.mark.parametrize("field", ["w_bins", "n_trials", "seed"])
    def test_rejects_bools(self, field):
        fields = dict(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10, seed=1)
        for value in (True, np.True_):
            with pytest.raises(ValueError, match=field):
                SimParams(**{**fields, field: value})

    def test_integral_fields_are_stored_as_int(self):
        p = SimParams(16.0, 100.0, 3.0, n_trials=2e3, seed=np.uint64(7))
        assert [(type(v), v) for v in (p.w_bins, p.n_trials, p.seed)] == [
            (int, 16), (int, 2000), (int, 7)]
        assert run_pairs(Setting.from_polar(0.0), Setting.from_polar(1.0), p) is not None

    def test_t0_ratio_stops_where_float64_holds_every_bin(self):
        assert SimParams(1, 2.0**53, 3.0, 10).max_tag == 2**53
        for t0 in (2.0**53 * (1 + 2**-52), 1e19):
            with pytest.raises(ValueError, match="t0_ratio"):
                SimParams(1, t0, 3.0, 10)


class TestSetting:
    def test_normalizes(self):
        s = Setting(np.array([0.0, 0.0, 10.0]))
        assert abs(np.linalg.norm(s.vec) - 1) < 1e-12
        assert s.vec[2] == 1.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Setting(np.zeros(3))

    def test_from_polar(self):
        s = Setting.from_polar(math.pi / 2)
        assert abs(s.vec[0] - 1.0) < 1e-15
        assert abs(math.acos(s.dot(Setting.from_polar(0.0))) - math.pi / 2) < 1e-12

    def test_vector_is_frozen(self):
        s = Setting.from_polar(1.0)
        with pytest.raises(ValueError):
            s.vec[0] = 5.0


class TestSampleHidden:
    def test_consumes_four_draws(self):
        # s_z, azimuth, lambda1, lambda2: draws 0..3 of each trial, in this order
        u = uniform_block(3, 0, 50, DRAWS_PER_TRIAL)
        sx, sy, sz, lam1, lam2 = _hidden_arrays(3, 0, 50)
        assert DRAWS_PER_TRIAL == 4
        assert sz.tobytes() == (2.0 * u[0] - 1.0).tobytes()
        assert np.allclose(np.arctan2(sy, sx) % (2 * math.pi), 2 * math.pi * u[1])
        assert lam1.tobytes() == u[2].tobytes() and lam2.tobytes() == u[3].tobytes()

    def test_moments(self):
        # one big block of hidden variables
        p = SimParams(w_bins=1, t0_ratio=10.0, d=3.0, n_trials=10**6, seed=20)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(1.0), p,
                        keep_hidden=True)
        sx, sy, sz, lam1, lam2 = blk.hidden
        tol = 3.0 / math.sqrt(3 * 10**6)
        assert abs(sx.mean()) < tol and abs(sy.mean()) < tol and abs(sz.mean()) < tol
        assert abs((sz ** 2).mean() - 1 / 3) < 0.002
        assert abs(lam1.mean() - 0.5) < 0.002
        assert abs(lam2.mean() - 0.5) < 0.002
        norms = sx ** 2 + sy ** 2 + sz ** 2
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_matches_bulk_path(self):
        s, lam1, lam2 = reference.hidden(42, 17)
        p = SimParams(w_bins=1, t0_ratio=10.0, d=3.0, n_trials=18, seed=42)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(1.0), p,
                        keep_hidden=True)
        assert [float(v[17]) for v in blk.hidden] == [*s, lam1, lam2]


class TestStation:
    @pytest.mark.parametrize("d", [0.5, 1.0, 3.0, 5.0])
    def test_aligned_spin_zero_delay(self, d):
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=d, n_trials=1)
        a = Setting.from_polar(0.3)
        x, k = reference.station(a, a.vec, 0.77, p)
        assert x == 1 and k == 0

    def test_perpendicular_full_reach(self):
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=1)
        x, k = reference.station(Setting.from_polar(0.0), (1.0, 0.0, 0.0), 0.5, p)
        assert x == 1  # sign(0) convention
        assert k == 500

    def test_exponent_zero_angle_independent(self):
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=0.0, n_trials=1)
        for s in [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.6, 0.0, 0.8)]:
            assert reference.station(Setting.from_polar(0.0), s, 0.999, p)[1] == 999

    @settings(max_examples=60, deadline=None)
    @given(
        t0=st.floats(0.1, 5000.0),
        d=st.floats(0.0, 6.0),
        lam=st.floats(0.0, 1.0, exclude_max=True),
        theta_s=st.floats(0.0, math.pi),
        phi_s=st.floats(0.0, 2 * math.pi),
    )
    def test_delay_bound(self, t0, d, lam, theta_s, phi_s):
        p = SimParams(w_bins=1, t0_ratio=t0, d=d, n_trials=1)
        s = (math.sin(theta_s) * math.cos(phi_s),
             math.sin(theta_s) * math.sin(phi_s),
             math.cos(theta_s))
        x, k = reference.station(Setting.from_polar(1.0), s, lam, p)
        assert 0 <= k <= p.max_tag
        assert x in (-1, 1)


class TestRunPairs:
    def test_anticorrelation_at_equal_settings(self):
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**5, seed=8)
        a = Setting.from_polar(0.7)
        blk = run_pairs(a, a, p)
        assert int(np.sum(blk.x1.astype(np.int64) * blk.x2)) == -len(blk)

    def test_determinism(self):
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**4, seed=5)
        a1, a2 = Setting.from_polar(0.0), Setting.from_polar(1.2)
        b1 = run_pairs(a1, a2, p)
        b2 = run_pairs(a1, a2, p)
        for name in ("x1", "k1", "x2", "k2"):
            assert getattr(b1, name).tobytes() == getattr(b2, name).tobytes()

    def test_locality_station1_unchanged_by_remote_setting(self):
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**5, seed=5)
        a1 = Setting.from_polar(0.0)
        ref = run_pairs(a1, Setting.from_polar(0.4), p)
        for theta2 in (0.0, 1.0, 2.0, math.pi):
            other = run_pairs(a1, Setting.from_polar(theta2), p)
            assert other.x1.tobytes() == ref.x1.tobytes()
            assert other.k1.tobytes() == ref.k1.tobytes()

    def test_locality_station2_unchanged_by_remote_setting(self):
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**4, seed=5)
        a2 = Setting.from_polar(0.9)
        ref = run_pairs(Setting.from_polar(0.0), a2, p)
        other = run_pairs(Setting.from_polar(2.2), a2, p)
        assert other.x2.tobytes() == ref.x2.tobytes()
        assert other.k2.tobytes() == ref.k2.tobytes()

    def test_scalar_path_reproduces_block(self):
        p = SimParams(w_bins=1, t0_ratio=123.4, d=2.5, n_trials=300, seed=77)
        a1, a2 = Setting.from_polar(0.3), Setting.from_polar(1.9)
        blk = run_pairs(a1, a2, p, keep_hidden=True)
        for i in range(0, 300, 29):
            s, lam1, lam2 = reference.hidden(p.seed, i)
            ev1 = reference.station(a1, s, lam1, p)
            ev2 = reference.station(a2, tuple(-c for c in s), lam2, p)
            assert (ev1, ev2) == ((blk.x1[i], blk.k1[i]), (blk.x2[i], blk.k2[i]))

    def test_hidden_retained_only_in_debug(self):
        p = SimParams(w_bins=1, t0_ratio=10.0, d=3.0, n_trials=5, seed=2)
        a = Setting.from_polar(0.5)
        assert run_pairs(a, a, p).hidden is None
        assert run_pairs(a, a, p, keep_hidden=True).hidden is not None

    def test_rotational_invariance_statistical(self):
        # same relative angle, globally rotated frame: estimates agree to 3 sigma
        from eprbsim import estimate_block

        p = SimParams(w_bins=16, t0_ratio=1000.0, d=3.0, n_trials=2 * 10**5, seed=31)
        theta = 2.0
        rot = rotation()
        a1, a2 = Setting.from_polar(0.0), Setting.from_polar(theta)
        b1, b2 = Setting(rot @ a1.vec), Setting(rot @ a2.vec)
        est_plain = estimate_block(run_pairs(a1, a2, p), p.w_bins)
        est_rot = estimate_block(run_pairs(b1, b2, p), p.w_bins)
        sigma = math.hypot(est_plain.stderr_e, est_rot.stderr_e)
        assert abs(est_plain.e - est_rot.e) < 3 * sigma
        gamma_se = math.sqrt(2 * est_plain.gamma / p.n_trials)
        assert abs(est_plain.gamma - est_rot.gamma) < 3 * gamma_se
