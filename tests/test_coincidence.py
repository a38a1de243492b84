import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprbsim import (
    CoincidenceCounts,
    Setting,
    SimParams,
    ThetaEngine,
    TrialBlock,
    analyze_streams,
    estimate,
    estimate_block,
    export_station_streams,
    match_streams,
    run_pairs,
    tally,
    tally_blocks,
)
from eprbsim.coincidence import jackknife_stderr_e
from eprbsim.ttag_io import EventStream

from . import reference


def block(rows):
    """A :class:`TrialBlock` of ``(x1, k1, x2, k2)`` rows."""
    x1, k1, x2, k2 = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return TrialBlock(None, x1.astype(np.int8), k1.copy(), x2.astype(np.int8), k2.copy())


def coincide(k1, k2, w_bins):
    """Whether ``tally_blocks`` counts a trial with tag bins ``k1`` and ``k2``."""
    return int(tally_blocks(block([(1, k1, 1, k2)]), w_bins, 1).sum()) == 1


class TestCoincide:
    def test_same_bin(self):
        assert coincide(5, 5, 1)

    def test_adjacent_bins_excluded_at_unit_window(self):
        assert not coincide(5, 6, 1)

    def test_window_boundary(self):
        assert coincide(100, 384, 285)
        assert not coincide(100, 385, 285)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            tally(block([(1, 0, 1, 0)]), 0)
        with pytest.raises(ValueError):
            tally_blocks(block([(1, 0, 1, 0)]), 0)

    @given(k1=st.integers(0, 10**6), k2=st.integers(0, 10**6),
           w=st.integers(1, 10**6))
    def test_symmetric(self, k1, k2, w):
        assert coincide(k1, k2, w) == coincide(k2, k1, w)

    @given(k1=st.integers(0, 1000), k2=st.integers(0, 1000), w=st.integers(1, 1000))
    def test_monotone_in_window(self, k1, k2, w):
        if coincide(k1, k2, w):
            assert coincide(k1, k2, w + 1)


@pytest.mark.parametrize("w_bins, valid", [
    (1.5, False), (math.nan, False), (math.inf, False), (0, False), (-2, False),
    (1, True), (2.0, True), (np.int64(16), True), (39, True),  # 39 is max_tag + 1
], ids=repr)
def test_one_window_rule(w_bins, valid):
    """Every tally path checks the window alike and counts the oracle's cells."""
    p = SimParams(w_bins=1, t0_ratio=37.5, d=3.0, n_trials=2000, seed=3)
    blk = run_pairs(Setting.from_polar(0.0), Setting.from_polar(1.0), p)
    engine = ThetaEngine(p)
    s1, s2 = export_station_streams(blk)
    if not valid:
        for call in (lambda: tally(blk, w_bins),
                     lambda: tally_blocks(blk, w_bins),
                     lambda: engine.block_counts_at(1.0, w_bins),
                     lambda: engine.block_counts_over([1.0], [1, w_bins]),
                     lambda: engine.estimate_at(1.0, w_bins),
                     lambda: match_streams(s1, s2, w_bins),
                     lambda: analyze_streams(s1, s2, 1, 1, w_bins)):
            with pytest.raises(ValueError, match="w_bins"):
                call()
        return
    rows = zip(*(col.tolist() for col in (blk.x1, blk.k1, blk.x2, blk.k2)))
    ref = reference.tally(rows, w_bins)
    expected = [ref.n_pp, ref.n_pm, ref.n_mp, ref.n_mm]
    matched = match_streams(s1, s2, w_bins)[(0, 0)]
    for got in (engine.block_counts_at(1.0, w_bins, 1)[0],
                engine.block_counts_over([1.0], [w_bins], 7)[0, 0].sum(axis=0),
                tally_blocks(blk, w_bins, 1)[0],
                [matched.n_pp, matched.n_pm, matched.n_mp, matched.n_mm]):
        assert list(got) == expected


class TestTally:
    def test_equal_settings_all_anticorrelated(self):
        rows = [(1, 3, -1, 3), (-1, 7, 1, 7), (1, 0, -1, 0)]
        c = tally(block(rows), 1)
        assert c.n_pm + c.n_mp == c.n_total == 3
        assert c.n_pp == c.n_mm == 0

    def test_empty_coincident_subset(self):
        rows = [(1, 0, 1, 5), (-1, 9, 1, 2)]
        c = tally(block(rows), 1)
        assert (c.n_pp, c.n_pm, c.n_mp, c.n_mm) == (0, 0, 0, 0)
        assert c.n_total == 2

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            tally(block([]), 1)

    def test_block_path_equals_record_path(self):
        p = SimParams(w_bins=3, t0_ratio=50.0, d=3.0, n_trials=4000, seed=13)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(1.1), p)
        rows = zip(blk.x1.tolist(), blk.k1.tolist(), blk.x2.tolist(), blk.k2.tolist())
        assert tally(blk, 3) == reference.tally(rows, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from([-1, 1]), st.integers(0, 12),
                  st.sampled_from([-1, 1]), st.integers(0, 12)),
        min_size=1, max_size=60),
        st.integers(1, 14), st.integers(0, 59))
    def test_merge_is_concatenation(self, rows, w, cut):
        cut = min(cut, len(rows) - 1)
        whole = tally(block(rows), w)
        assert whole == reference.tally(rows, w)
        if cut == 0:
            return
        left = tally_blocks(block(rows[:cut]), w, 1)
        right = tally_blocks(block(rows[cut:]), w, 1)
        assert CoincidenceCounts.from_cells(left + right, len(rows)) == whole

    def test_tally_blocks_merge_to_tally(self):
        p = SimParams(w_bins=5, t0_ratio=100.0, d=3.0, n_trials=5000, seed=3)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(2.0), p)
        blocks = tally_blocks(blk, 5, n_blocks=100)
        assert blocks.shape == (100, 4)
        assert CoincidenceCounts.from_cells(blocks, len(blk)) == tally(blk, 5)

    @pytest.mark.parametrize("n_blocks", [0, -3, 1.5])
    def test_bad_block_count_named(self, n_blocks):
        p = SimParams(w_bins=16, t0_ratio=37.5, d=3.0, n_trials=500, seed=3)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(0.5), p)
        with pytest.raises(ValueError, match="n_blocks must be an integer >= 1"):
            tally_blocks(blk, 16, n_blocks)
        with pytest.raises(ValueError, match="n_blocks must be an integer >= 1"):
            ThetaEngine(p).estimate_at(0.5, 16, n_blocks=n_blocks)

    def test_counts_invariant_validated(self):
        with pytest.raises(ValueError):
            CoincidenceCounts(2, 2, 2, 2, n_total=7)
        with pytest.raises(ValueError):
            CoincidenceCounts(-1, 0, 0, 0, n_total=5)


class TestEstimate:
    def test_perfect_anticorrelation(self):
        c = CoincidenceCounts(0, 50, 50, 0, n_total=1000)
        est = estimate(c)
        assert est.e == -1.0
        assert est.e1 == 0.0 and est.e2 == 0.0
        assert est.gamma == 0.1
        assert est.n_coinc == 100

    def test_flat_counts(self):
        est = estimate(CoincidenceCounts(25, 25, 25, 25, n_total=100))
        assert est.e == 0.0
        assert est.gamma == 1.0

    def test_zero_coincidences_undefined_not_nan(self):
        est = estimate(CoincidenceCounts(0, 0, 0, 0, n_total=10))
        assert est.e is None and est.e1 is None and est.e2 is None
        assert est.gamma == 0.0
        assert est.stderr_e is None

    def test_reference_gamma_at_small_window(self):
        # d=3, T0/tau=1000, w=1, N=1e6, theta=pi/2: gamma near 1.27e-3
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**6, seed=2)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(math.pi / 2), p)
        est = estimate(tally(blk, 1))
        assert abs(est.gamma - 1.27e-3) <= 0.1 * 1.27e-3

    def test_e_equals_direct_average(self):
        p = SimParams(w_bins=4, t0_ratio=200.0, d=3.0, n_trials=20000, seed=6)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(0.9), p)
        est = estimate(tally(blk, 4))
        mask = np.abs(blk.k1 - blk.k2) < 4
        direct = float(np.mean(blk.x1[mask].astype(np.float64) * blk.x2[mask]))
        assert est.e == direct

    def test_gamma_monotone_in_window(self):
        p = SimParams(w_bins=1, t0_ratio=300.0, d=3.0, n_trials=30000, seed=9)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(1.4), p)
        gammas = [estimate(tally(blk, w)).gamma for w in (1, 2, 5, 20, 100, 301)]
        assert gammas == sorted(gammas)
        assert gammas[-1] == 1.0  # window beyond the delay bound accepts all

    def test_jackknife_close_to_iid_formula(self):
        p = SimParams(w_bins=16, t0_ratio=1000.0, d=3.0, n_trials=10**5, seed=21)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(1.8), p)
        blocks = tally_blocks(blk, 16, 100)
        total = CoincidenceCounts.from_cells(blocks, len(blk))
        jack = jackknife_stderr_e(blocks)
        est = estimate(total)
        assert jack is not None
        assert 0.5 * est.stderr_e < jack < 2.0 * est.stderr_e

    def test_blocks_must_match_counts(self):
        p = SimParams(w_bins=2, t0_ratio=100.0, d=3.0, n_trials=1000, seed=1)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(1.0), p)
        blocks = tally_blocks(blk, 2, 10)
        wrong = CoincidenceCounts(1, 0, 0, 0, n_total=1000)
        with pytest.raises(ValueError):
            estimate(wrong, blocks)

    @pytest.mark.parametrize("blocks", [
        [[1, 0, 0, 0], [0, 1, 0, 0]],  # a list, not an array
        np.array([[1.0, 0, 0, 0], [0, 1, 0, 0]]),  # not integer
        np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint64),  # e's numerator would wrap
        np.array([1, 1, 0, 0]),  # not one row per block
        np.array([[1, 1], [0, 0]]),  # not four cells
        np.array([[2, 0, 0, 0], [-1, 1, 0, 0]]),  # a negative count
        np.array([[1, 0, 0, 0], [0, 0, 0, 1]]),  # sums to other counts
    ], ids=["list", "float", "unsigned", "1d", "two-cells", "negative", "sum"])
    def test_blocks_must_be_an_integer_cell_table(self, blocks):
        with pytest.raises(ValueError, match="blocks"):
            estimate(CoincidenceCounts(1, 1, 0, 0, n_total=10), blocks)

    def test_estimate_block_convenience(self):
        p = SimParams(w_bins=8, t0_ratio=500.0, d=3.0, n_trials=50000, seed=4)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(2.5), p)
        est = estimate_block(blk, 8)
        assert est.stderr_e is not None and est.stderr_e > 0
        assert -1 <= est.e <= 1
        assert est.gamma == estimate(tally(blk, 8)).gamma


class TestJackknife:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
                    min_size=1, max_size=120))
    def test_matches_scalar_oracle(self, rows):
        cells = np.array(rows, dtype=np.int64)
        assert jackknife_stderr_e(cells) == reference.jackknife_stderr_e(rows)

    @pytest.mark.parametrize("rows", [
        [[3, 1, 0, 2]],  # one block
        [[0, 0, 0, 0], [3, 1, 0, 2], [0, 0, 0, 0]],  # one block holds every coincidence
        [[0, 0, 0, 0]] * 5,  # no coincidence
    ], ids=["one-block", "one-block-holds-all", "no-coincidence"])
    def test_undefined_cases(self, rows):
        assert reference.jackknife_stderr_e(rows) is None
        assert jackknife_stderr_e(np.array(rows, dtype=np.int64)) is None


@st.composite
def tag_lists(draw):
    """Two sorted tag lists drawn from one pool, so tags repeat within and across them.

    Pool gaps reach 1 (dense, ties everywhere), 11 (as the pinned random
    streams) or 400 (sparse, mostly one event a segment).
    """
    top = draw(st.sampled_from([1, 11, 400]))
    pool = np.cumsum(draw(st.lists(st.integers(0, top), min_size=1, max_size=30))).tolist()
    return tuple(sorted(draw(st.lists(st.sampled_from(pool), max_size=30))) for _ in "ab")


class TestMatchStreams:
    @settings(max_examples=200, deadline=None)
    @given(tags=tag_lists(), w_bins=st.one_of(st.just(1), st.integers(1, 60)))
    @example(tags=([0, 3, 4, 4, 20], [2, 4, 4, 9, 21]), w_bins=5)  # several events a side
    @example(tags=([5, 5, 7], [5, 6, 6]), w_bins=1)  # equal tags across and within
    def test_pairs_equal_greedy_oracle(self, tags, w_bins):
        # one setting per event: cell (i, j) is coincident iff events i and j paired
        ka, kb = tags
        a = EventStream(ka, range(len(ka)), [1] * len(ka))
        b = EventStream(kb, range(len(kb)), [1] * len(kb))
        pairs = sorted(key for key, c in match_streams(a, b, w_bins).items() if c.n_coinc)
        assert pairs == reference.match_pairs(ka, kb, w_bins)

    def test_single_opposite_pair(self):
        a = EventStream([0], [0], [+1])
        b = EventStream([0], [0], [-1])
        counts = match_streams(a, b, 1)
        c = counts[(0, 0)]
        assert c.n_pm == 1 and c.n_coinc == 1

    def test_at_most_once_matching(self):
        a = EventStream([0, 1], [0, 0], [+1, +1])
        b = EventStream([0], [0], [+1])
        c = match_streams(a, b, 2)[(0, 0)]
        assert c.n_coinc == 1
        assert c.n_pp == 1

    def test_nearest_wins(self):
        # A events at 0 and 10; the single B event at 9 pairs with A@10
        a = EventStream([0, 10], [0, 0], [+1, -1])
        b = EventStream([9], [0], [+1])
        c = match_streams(a, b, 20)[(0, 0)]
        assert c.n_coinc == 1
        assert c.n_mp == 1  # the x=-1 event at tag 10 was chosen

    def test_unsorted_input_rejected(self):
        good = EventStream([0, 1], [0, 0], [1, 1])
        bad = EventStream.__new__(EventStream)
        bad.k = np.array([5, 1])
        bad.setting_index = np.array([0, 0])
        bad.x = np.array([1, 1])
        with pytest.raises(ValueError, match="sorted"):
            match_streams(bad, good, 1)

    def test_cells_keyed_by_setting_pair(self):
        a = EventStream([0, 10, 20], [0, 1, 0], [+1, +1, -1])
        b = EventStream([0, 10, 20], [1, 0, 0], [-1, +1, -1])
        counts = match_streams(a, b, 1)
        assert counts[(0, 1)].n_pm == 1
        assert counts[(1, 0)].n_pp == 1
        assert counts[(0, 0)].n_mm == 1
        # opportunities: min of per-setting event counts
        assert counts[(0, 0)].n_total == 2
        assert counts[(1, 1)].n_coinc == 0
