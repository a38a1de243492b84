import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from eprbsim import (
    Setting,
    SimParams,
    TtagFormatError,
    analyze_external,
    analyze_streams,
    estimate,
    export_station_streams,
    match_streams,
    read_events,
    run_pairs,
    smax_quantum,
    synthetic_singlet_streams,
    tally,
    write_events,
)
from eprbsim import coincidence, pipeline
from eprbsim.analyze import report_rows
from eprbsim.cli import main
from eprbsim.ttag_io import EventStream, format_real


W_CHSH = 285
ANGLES_A, ANGLES_B = (0.0, math.pi / 2), (math.pi / 4, 3 * math.pi / 4)


def chsh_layout(n):
    """The four ``n``-trial cells of the CHSH settings at ``W_CHSH``, and both
    stations' streams holding them one after another in time, as the
    benchmark's ``ttag-chsh`` workload lays them out."""
    blocks, cols_a, cols_b, offset = {}, [], [], 0
    for i, a in enumerate(ANGLES_A):
        for j, b in enumerate(ANGLES_B):
            p = SimParams(W_CHSH, 1000.0, 3.0, n, seed=1 + 2 * i + j)
            blk = blocks[(i, j)] = run_pairs(Setting.from_polar(a), Setting.from_polar(b), p)
            for cols, s in zip((cols_a, cols_b), export_station_streams(blk, i, j)):
                cols.append((s.k + offset, s.setting_index, s.x))
            offset += n * 2 * (p.max_tag + 1)
    return blocks, [EventStream(*map(np.concatenate, zip(*cols))) for cols in (cols_a, cols_b)]


class TestSyntheticSinglet:
    def test_chsh_recovers_quantum_value(self):
        qm = smax_quantum()
        a, b, c, d = qm.angles
        sa, sb = synthetic_singlet_streams([a, b], [c, d], n_pairs=2 * 10**5, seed=40)
        report = analyze_streams(sa, sb, 2, 2, w_bins=1)
        sigma = math.sqrt(sum((report.cells[k].stderr_e or 0.0) ** 2
                              for k in report.cells))
        assert abs(abs(report.s_best) - qm.value) <= 3 * sigma
        assert report.flags is not None and report.flags.chsh

    def test_deterministic(self):
        a1, b1 = synthetic_singlet_streams([0.0, 1.0], [0.5, 1.5], 500, seed=3)
        a2, b2 = synthetic_singlet_streams([0.0, 1.0], [0.5, 1.5], 500, seed=3)
        assert a1 == a2 and b1 == b2

    def test_marginals_unbiased(self):
        sa, sb = synthetic_singlet_streams([0.0, 2.0], [1.0, 2.5], 10**5, seed=8)
        assert abs(float(np.mean(sa.x))) < 3.3 / math.sqrt(10**5)
        assert abs(float(np.mean(sb.x))) < 3.3 / math.sqrt(10**5)


class TestAnalyzeStreams:
    def test_identical_settings_opposite_outcomes(self):
        n = 400
        ks = list(range(0, 4 * n, 4))
        sa = EventStream(ks, [0] * n, [1, -1] * (n // 2))
        sb = EventStream(ks, [0] * n, [-1, 1] * (n // 2))
        report = analyze_streams(sa, sb, 1, 1, w_bins=1)
        est = report.cells[(0, 0)]
        assert est.e == -1.0
        assert est.gamma == 1.0
        assert report.gamma_min_pairs == 1.0
        assert report.gamma_total_fraction == 1.0

    def test_min_and_total_fractions_differ(self):
        # cell (0,0) coincides always, cell (1,1) never: the per-pair minimum
        # and the pooled fraction disagree
        ka, sa_idx, xa = [], [], []
        kb, sb_idx, xb = [], [], []
        for n in range(200):
            base = 100 * n
            if n % 2 == 0:
                ka.append(base); sa_idx.append(0); xa.append(1)
                kb.append(base); sb_idx.append(0); xb.append(-1)
            else:
                ka.append(base); sa_idx.append(1); xa.append(1)
                kb.append(base + 50); sb_idx.append(1); xb.append(1)
        report = analyze_streams(EventStream(ka, sa_idx, xa),
                                 EventStream(kb, sb_idx, xb), 2, 2, w_bins=10)
        assert report.gamma_min_pairs == 0.0
        assert 0.0 < report.gamma_total_fraction < 1.0

    @pytest.mark.parametrize("n", [40, 0], ids=["setting-1-unused", "empty-streams"])
    def test_missing_cell_leaves_summary_undefined(self, n):
        ks = list(range(0, 4 * n, 4))
        sa = EventStream(ks, [0] * n, [1] * n)  # station A never uses setting 1
        sb = EventStream(ks, [i % 2 for i in range(n)], [-1] * n)
        report = analyze_streams(sa, sb, 2, 2, w_bins=1)
        assert (1, 0) not in report.cells
        assert (report.s_by_sign, report.s_best, report.bound_lg, report.flags) == (
            None, None, None, None)
        if not n:  # no cell, so no coincidence fraction is defined
            assert (report.gamma_min_pairs, report.gamma_total_fraction) == (None, None)

    def test_setting_index_outside_table_rejected(self):
        sa = EventStream([0], [5], [1])
        sb = EventStream([0], [0], [1])
        with pytest.raises(TtagFormatError, match="setting index"):
            analyze_streams(sa, sb, 2, 2, w_bins=1)


class TestPipelineEquivalence:
    def test_exported_streams_reproduce_in_memory_counts(self):
        p = SimParams(w_bins=7, t0_ratio=300.0, d=3.0, n_trials=5 * 10**4, seed=33)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(2.2), p)
        s1, s2 = export_station_streams(blk)
        matched = match_streams(s1, s2, p.w_bins)[(0, 0)]
        direct = tally(blk, p.w_bins)
        assert (matched.n_pp, matched.n_pm, matched.n_mp, matched.n_mm) == (
            direct.n_pp, direct.n_pm, direct.n_mp, direct.n_mm)
        assert matched.n_total == direct.n_total
        assert estimate(matched) == estimate(direct)

    def test_full_file_round_trip(self, tmp_path):
        p = SimParams(w_bins=3, t0_ratio=100.0, d=3.0, n_trials=2 * 10**4, seed=44)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(1.3), p)
        s1, s2 = export_station_streams(blk)
        fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_events(s1, fa)
        write_events(s2, fb)
        report = analyze_external(fa, fb, [0.0], [1.3], w_bins=p.w_bins)
        direct = estimate(tally(blk, p.w_bins))
        assert report.cells[(0, 0)].e == direct.e
        assert report.cells[(0, 0)].gamma == direct.gamma

    def test_two_by_two_files_at_scale(self, tmp_path, capsys):
        # four 5 x 10^4-trial cells one after another, so tags reach 4 x 10^8
        w, angles_a, angles_b = W_CHSH, ANGLES_A, ANGLES_B
        _, streams = chsh_layout(5 * 10**4)
        assert 3.9e8 < streams[0].k[-1] < 4.1e8
        files = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for stream, path in zip(streams, files):
            write_events(stream, path)
            assert read_events(path) == stream
        assert main(["analyze", "--file-a", str(files[0]), "--file-b", str(files[1]),
                     "--settings-a", ",".join(map(repr, angles_a)),
                     "--settings-b", ",".join(map(repr, angles_b)),
                     "--w-bins", str(w)]) == 0
        out = capsys.readouterr().out.splitlines()
        report = analyze_streams(*streams, 2, 2, w)
        printed = [line.split(",")[1:] for line in out if line.startswith("cell,")]
        assert [(int(ia), int(ib), float(e), float(se), float(g), int(nc), int(nt))
                for ia, ib, e, se, g, nc, nt in printed] == [
                    row[1:] for row in report_rows(report)]
        assert f"s_best = {format_real(report.s_best)}" in out

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_chsh_layout_matches_block_tallies(self, cpus):
        # every trial has its own time slot, so matching recovers each cell's tally
        blocks, streams = chsh_layout(3000)
        chunks = mock.Mock(wraps=coincidence._segment_pairs)
        with mock.patch.object(pipeline, "_cpus", lambda: cpus), \
                mock.patch.multiple(coincidence, _MATCH_EVENTS=256, _segment_pairs=chunks):
            counts = match_streams(*streams, W_CHSH)
        assert chunks.call_count > 4  # cut at many gaps
        assert sorted(counts) == sorted(blocks)
        for key, blk in blocks.items():
            c, t = counts[key], tally(blk, W_CHSH)
            assert (c.n_pp, c.n_pm, c.n_mp, c.n_mm) == (t.n_pp, t.n_pm, t.n_mp, t.n_mm)


#: Bytes an event of either file that an analysis may trace at its peak:
#: 27.1 were measured at 2 workers, and the bound leaves 14 % above that.
#: The two streams keep 17 bytes an event, and the second file's bytes, 14.2
#: an event of it, are held while it is parsed.
ANALYSIS_BYTES_PER_EVENT = 31


def test_analysis_memory_per_event(tmp_path):
    # tracemalloc sees numpy's buffers and the bytes read from each file
    _, streams = chsh_layout(5 * 10**4)
    files = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for stream, path in zip(streams, files):
        write_events(stream, path)
    events = sum(map(len, streams))
    del streams
    with mock.patch.object(pipeline, "_cpus", lambda: 2):
        tracemalloc.start()
        try:
            report = analyze_external(*files, ANGLES_A, ANGLES_B, W_CHSH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert report.s_best is not None
    assert peak / events < ANALYSIS_BYTES_PER_EVENT
