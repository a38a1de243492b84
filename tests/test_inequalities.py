import math
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eprbsim import (
    Setting,
    SimParams,
    check_violations,
    lg_bound,
    maximize_S,
    min_gamma,
    run_pairs,
    s_value,
    smax_quantum,
    tally_blocks,
)
from eprbsim import inequalities, pipeline
from eprbsim.inequalities import _fold, _theta_grid
from eprbsim.pipeline import ThetaEngine

unit_e = st.floats(-1.0, 1.0)


class TestSValue:
    def test_extremal_combination(self):
        assert s_value(-1, 1, -1, -1) == -4.0

    def test_quantum_angles(self):
        e = -math.sqrt(2) / 2
        assert abs(abs(s_value(e, -e, e, e)) - 2 * math.sqrt(2)) < 1e-12

    def test_zero(self):
        assert s_value(0, 0, 0, 0) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            s_value(1.5, 0, 0, 0)
        with pytest.raises(ValueError):
            s_value(0, 0, 0, -1.01)

    @given(unit_e, unit_e, unit_e, unit_e)
    def test_bounded_by_four(self, a, b, c, d):
        assert abs(s_value(a, b, c, d)) <= 4.0 + 1e-12


class TestLgBound:
    def test_unit_gamma_gives_two(self):
        assert lg_bound(1.0) == 2.0

    def test_three_quarters_meets_trivial_bound(self):
        assert abs(lg_bound(0.75) - 4.0) < 1e-12

    def test_half_gamma_vacuous(self):
        assert abs(lg_bound(0.5) - 8.0) < 1e-12

    def test_rejects_nonpositive_and_above_one(self):
        for bad in (0.0, -0.3, 1.2):
            with pytest.raises(ValueError):
                lg_bound(bad)

    @given(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
    def test_strictly_decreasing(self, g1, g2):
        if g1 < g2:
            assert lg_bound(g1) > lg_bound(g2)


class TestCheckViolations:
    def test_ion_trap_arithmetic(self):
        flags = check_violations(2.25, 1.0)
        assert flags.chsh and flags.lg
        assert not flags.super_quantum

    def test_small_window_regime(self):
        flags = check_violations(2.83, 0.00127)
        assert flags.chsh and not flags.lg
        assert flags.super_quantum  # 2.83 just exceeds 2*sqrt(2) = 2.8284

    def test_classical_value(self):
        flags = check_violations(1.0, 1.0)
        assert not (flags.chsh or flags.lg or flags.super_quantum)

    def test_precondition(self):
        with pytest.raises(ValueError):
            check_violations(4.5, 1.0)


FAST = math.pi / 24  # theta_step of a quick search


class TestMaximizeS:
    def test_report_structure(self):
        p = SimParams(w_bins=8, t0_ratio=200.0, d=3.0, n_trials=10**5, seed=19)
        rep = maximize_S(p, FAST)
        assert abs(rep.s) <= 4.0
        assert rep.bound_trivial == 4.0 and rep.bound_chsh == 2.0
        assert abs(rep.bound_lg - (6.0 / rep.gamma_inf - 4.0)) < 1e-12
        assert 0.0 < rep.gamma_inf <= 1.0
        assert rep.stderr_s and rep.stderr_s > 0
        assert 0.0 <= rep.gamma_argmin <= math.pi
        assert len(rep.quad_angles) == 4
        assert all(0.0 <= t < 2 * math.pi for t in rep.quad_angles)

    def test_degenerate_grid_rejected(self):
        p = SimParams(w_bins=1, t0_ratio=100.0, d=3.0, n_trials=1000, seed=1)
        with pytest.raises(ValueError):
            maximize_S(p, theta_step=math.pi / 3)

    def test_interpolated_value_respects_curve_bound(self):
        # combination from any curve bounded by 1 stays within 4
        p = SimParams(w_bins=4, t0_ratio=50.0, d=3.0, n_trials=5 * 10**4, seed=23)
        rep = maximize_S(p, FAST)
        assert abs(rep.s) <= 4.0

    def test_not_decreasing_with_more_trials(self):
        base = SimParams(w_bins=16, t0_ratio=1000.0, d=3.0, n_trials=10**5, seed=29)
        small = maximize_S(base, FAST)
        big = maximize_S(replace(base, n_trials=10**6), FAST)
        sigma = math.hypot(small.stderr_s or 0.0, big.stderr_s or 0.0)
        assert big.s >= small.s - 3 * sigma

    def test_superquantum_exponent(self):
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=5.0, n_trials=10**6, seed=16)
        rep = maximize_S(p)
        assert rep.s > smax_quantum().value
        assert rep.flags.super_quantum


class TestSelectionEngineReuse:
    P = SimParams(w_bins=1, t0_ratio=200.0, d=3.0, n_trials=2 * 10**4, seed=37)

    def _engines_built(self, params):
        """``maximize_S(params)`` and the number of engines it constructed."""
        with mock.patch.object(inequalities, "ThetaEngine", wraps=ThetaEngine) as built:
            rep = maximize_S(params, FAST)
        return rep, built.call_count

    def test_window_family_shares_selection(self):
        inequalities._selection.clear()
        cold = maximize_S(replace(self.P, w_bins=16), FAST)
        self._engines_built(self.P)
        self._engines_built(replace(self.P, w_bins=1000))
        warm, built = self._engines_built(replace(self.P, w_bins=16))
        assert built == 4  # the four held-out legs only
        assert warm == cold and repr(warm) == repr(cold)

    @pytest.mark.parametrize("field, value", [
        ("seed", 38), ("n_trials", 2 * 10**4 + 1), ("t0_ratio", 201.0), ("d", 2.5)])
    def test_other_ensemble_misses(self, field, value):
        self._engines_built(self.P)
        _, built = self._engines_built(replace(self.P, **{field: value}))
        assert built == 5
        assert len(inequalities._selection) == 1  # the old table was freed

    def test_other_grid_misses(self):
        self._engines_built(self.P)
        with mock.patch.object(inequalities, "ThetaEngine", wraps=ThetaEngine) as built:
            maximize_S(self.P, FAST / 2)
        assert built.call_count == 5
        assert len(inequalities._selection) == 1

    @pytest.mark.parametrize("memo_top, builds", [
        (1, [5, 5, 4, 5, 4, 5, 5, 4, 4]),
        (5, [5, 4, 4, 5, 4, 5, 5, 4, 4]),
        (4096, [5, 4, 4, 4, 4, 4, 4, 4, 4]),
    ])
    def test_window_family_at_any_table_width(self, memo_top, builds):
        # max_tag is 38: a table resolves windows up to min(38, max(w, memo_top)) + 1,
        # and every window once that passes 38
        p = replace(self.P, t0_ratio=37.5)
        windows = [3, 6, 1, 16, 2, 37, 39, 1000, 2]
        with mock.patch.object(inequalities, "_MEMO_TOP", memo_top):
            cold = {}
            for w in set(windows):
                inequalities._selection.clear()
                cold[w] = maximize_S(replace(p, w_bins=w), FAST)
            inequalities._selection.clear()
            warm = [self._engines_built(replace(p, w_bins=w)) for w in windows]
        assert [built for _, built in warm] == builds  # 4: the held-out legs only
        assert [repr(rep) for rep, _ in warm] == [repr(cold[w]) for w in windows]
        # the kept table, at the last width, holds the reference tally of the
        # grid at each window
        (table,) = inequalities._selection.values()
        assert table.shape == (p.max_tag + 1, len(_theta_grid(FAST)), 4)
        for theta, cells in zip(_theta_grid(FAST), table.swapaxes(0, 1)):
            blk = run_pairs(Setting.from_polar(0.0), Setting.from_polar(float(theta)), p)
            for w in (1, 2, 16, p.max_tag, p.max_tag + 1):
                assert np.array_equal(cells[w - 1], tally_blocks(blk, w, 1)[0])

    def test_selection_engine_dropped_before_legs(self):
        inequalities._selection.clear()
        selection, alive_at_legs = [], []

        class Tracked(ThetaEngine):
            def __init__(self, params, first_trial=0):
                if first_trial:  # a held-out leg
                    alive_at_legs.append(selection[0]() is not None)
                super().__init__(params, first_trial)
                if not first_trial:
                    selection.append(weakref.ref(self))

        with mock.patch.object(inequalities, "ThetaEngine", Tracked):
            maximize_S(self.P, FAST)
        assert len(selection) == 1 and alive_at_legs == [False] * 4
        assert selection[0]() is None
        assert not any(isinstance(v, ThetaEngine) for v in inequalities._selection.values())


class TestHeldOutLegs:
    P = SimParams(w_bins=8, t0_ratio=200.0, d=3.0, n_trials=2 * 10**4, seed=19)

    def _legs(self, rep, params=P):
        a, b, c, d = rep.quad_angles
        n = params.n_trials
        return [ThetaEngine(params, first_trial=(i + 1) * n).estimate_at(float(_fold(delta)))
                for i, delta in enumerate((a - c, a - d, b - c, b - d))]

    def test_s_is_held_out_combination(self):
        rep = maximize_S(self.P, FAST)
        legs = self._legs(rep)
        assert rep.s == s_value(*(leg.e for leg in legs))
        assert rep.stderr_s == math.sqrt(sum(leg.stderr_e ** 2 for leg in legs))
        assert rep.s_select is not None and abs(rep.s_select) <= 4.0
        assert rep.s_select != rep.s
        assert [type(t) for t in rep.quad_angles] == [float] * 4

    def test_leg_without_error_leaves_stderr_undefined(self):
        # leg 2 holds one coincidence, so its jackknife error is undefined
        p = SimParams(w_bins=1, t0_ratio=20.0, d=3.0, n_trials=60, seed=11)
        rep = maximize_S(p)
        legs = self._legs(rep, p)
        assert [leg.stderr_e is None for leg in legs] == [False, False, True, False]
        assert legs[2].n_coinc == 1
        assert rep.stderr_s is None

    def test_zero_offset_engine_is_default_engine(self):
        default = ThetaEngine(self.P)
        offset = ThetaEngine(self.P, first_trial=0)
        for theta in (0.3, math.pi / 2, 2.5):
            assert np.array_equal(offset.block_counts_at(theta), default.block_counts_at(theta))

    def test_offset_engine_chunked_matches_cached(self):
        n = self.P.n_trials
        whole = ThetaEngine(self.P, first_trial=2 * n).block_counts_at(1.0)  # one chunk
        with mock.patch.object(pipeline, "_CHUNK", 777):  # chunk ends inside the blocks
            chunked = ThetaEngine(self.P, first_trial=2 * n).block_counts_at(1.0)
        assert np.array_equal(chunked, whole)
        assert not np.array_equal(whole,
                                  ThetaEngine(self.P).block_counts_at(1.0))

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            ThetaEngine(self.P, first_trial=-1)


class TestMinGamma:
    def test_argmin_near_right_angle(self):
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**6, seed=2)
        inf = min_gamma(p)
        assert abs(inf.gamma - 1.27e-3) <= 0.1 * 1.27e-3
        assert abs(inf.theta - math.pi / 2) < 0.35

    def test_ion_trap_operating_point(self):
        p = SimParams(w_bins=1, t0_ratio=1.025, d=3.0, n_trials=10**6, seed=2)
        inf = min_gamma(p)
        assert inf.gamma >= 0.87

    def test_grid_must_cover_range(self):
        p = SimParams(w_bins=1, t0_ratio=100.0, d=3.0, n_trials=1000, seed=1)
        with pytest.raises(ValueError):
            min_gamma(p, thetas=[0.5, 1.0, 1.5])

    def test_grid_must_lie_inside_range(self):
        p = SimParams(w_bins=1, t0_ratio=100.0, d=3.0, n_trials=1000, seed=1)
        with pytest.raises(ValueError, match=r"theta grid must lie inside \[0, pi\]"):
            min_gamma(p, thetas=[0.0, math.pi / 2, math.pi, 4.0, -0.5])

    def test_custom_grid_accepted(self):
        p = SimParams(w_bins=1, t0_ratio=50.0, d=3.0, n_trials=2 * 10**4, seed=3)
        inf = min_gamma(p, thetas=[0.0, math.pi / 4, math.pi / 2,
                                   3 * math.pi / 4, math.pi])
        assert 0.0 <= inf.gamma <= 1.0
