"""Pinned bytes: the counter RNG, the station law, the engine and the
scenario tables must reproduce these exact outputs.

Speed work on the simulate-and-tally path must leave every table
byte-identical, so these digests were recorded once and are compared here
rather than between two runs of the same code.  The engine property tests
check the engine at any chunk size, window set and worker count against the
per-block reference tally of ``run_pairs``.  The stream-matching pins cover
``match_streams`` on random multi-setting streams and on the exported layout
of four blocks; the TTAG-CSV pins cover the writer's bytes on two streams;
the command-line pins cover the tables that ``sweep`` and ``analyze`` print
and the reports of ``smax`` and ``fit``.
"""

import hashlib
import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprbsim import (
    EventStream,
    Setting,
    SimParams,
    ThetaEngine,
    TrialBlock,
    export_station_streams,
    match_streams,
    run_pairs,
    run_scenario,
    synthetic_singlet_streams,
    tally,
    tally_blocks,
    uniform_block,
    write_events,
)
from eprbsim import model, pipeline
from eprbsim.cli import main
from eprbsim.coincidence import add_cells
from eprbsim.model import _PRODUCT_D, _half_power, _station_kernel
from eprbsim.ttag_io import read_manifest

from . import reference


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class TestPinnedBytes:
    def test_uniform_block(self):
        u = uniform_block(5, 1000, 21000, 4)
        assert u.shape == (4, 20000) and u.dtype == np.float64
        assert hashlib.sha256(u.tobytes()).hexdigest() == (
            "f3bf4ec72b0fda12f05432c144fe15d5db7f7969d7c9eb12857ee19f0cb7ac5c")

    def test_trial_stream(self):
        u = np.array(reference.uniforms(5, 1234, 8))
        assert _sha(u) == (
            "a2e447eab43881b8d3b756656be5c5b921423785e02742b4ce75da842581dd88")

    def test_run_pairs_non_planar(self):
        p = SimParams(w_bins=3, t0_ratio=37.5, d=2.2, n_trials=5000, seed=9)
        blk = run_pairs(Setting.from_polar(0.3), Setting(np.array([0.4, -0.7, 0.2])), p)
        assert [a.dtype for a in (blk.x1, blk.k1, blk.x2, blk.k2)] == [
            np.int8, np.int64, np.int8, np.int64]
        assert _sha(blk.x1, blk.k1, blk.x2, blk.k2) == (
            "1be82fabab7894e31d0ec1dd804a2e1e86b5e2ae16422a4674faed5d3bed89eb")

    @pytest.mark.parametrize("name, table, digest", [
        ("fig1", "gamma_w1.csv",
         "8703b7ec985b539eaceae8d4b85990875968503d51330589025bcd89b488cdbe"),
        ("fig2", "e_w285.csv",
         "6231b24c8f1931b1900731b0583abe05f4c89c0254875c352bf965a6eaecf7dc"),
        ("oracle-check", "oracle_check.csv",
         "155d219d64a5aa7c5636b70f1be11fec3ad613f84e8adaaacb7eb7dcc2b02466"),
        ("weihs-compare", "analysis_cells.csv",
         "b11b577e4d27eebda725f64e87390e2269570ab9378683da1b632880f77800be"),
        ("fits", "fits.csv",
         "3427cf7cd3d19787425ce4905bdee298e4a16f5a05ee2ad8789bd303b14601a3"),
    ])
    def test_scenario_table_digest(self, tmp_path, name, table, digest):
        run = run_scenario(name, tmp_path, {"n_trials": 20000, "seed": 5})
        assert read_manifest(run.manifest_path).output_digests[table] == digest


    @pytest.mark.parametrize("stream, digest", [
        (EventStream([0, 2**31 - 1, 2**31, 2**31, 2**32 + 5, 2**40 + 3, 2**62],
                     [0, 1, 2, 1, 0, 2, 1], [1, -1, 1, -1, -1, 1, 1]),
         "c105dfbe0e1757c84bfa074168b909c6ca9021a54929e9769671396c342fc279"),
        (EventStream([], [], []),  # the header line only
         "5489e34c594ce1a4e9c8d20f63f46120891f69b7de472ef0b7a64e9b945b70af"),
    ], ids=["tags-past-2**31", "empty"])
    def test_ttag_file(self, tmp_path, stream, digest):
        write_events(stream, tmp_path / "s.csv")
        assert hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest() == digest

    def test_sweep_stdout(self, capsys):
        assert main(["sweep", "--w-bins", "16", "--n", "20000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "48bee23b80c6234111ded40ffc3c4401b6271a9a7c252b5cb218885d70879ff1")

    def test_smax_stdout(self, capsys):
        assert main(["smax", "--w-bins", "16", "--n", "20000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "15f28bc92db4593d4a6e845d3af100b60264d91c24d26fd9a77a094d57fa4064")

    def test_fit_stdout(self, capsys):
        assert main(["fit", "--target", "2.73", "--n", "20000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "95db61e69785d6c3c0133105314bff1dfbccc23c4209929b6b08493a9940fe31")

    def test_analyze_stdout(self, tmp_path, capsys):
        streams = synthetic_singlet_streams([0.0, math.pi / 2],
                                            [math.pi / 4, 3 * math.pi / 4], 2000, seed=5)
        files = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for stream, path in zip(streams, files):
            write_events(stream, path)
        assert main(["analyze", "--file-a", str(files[0]), "--file-b", str(files[1]),
                     "--settings-a", "0,1.5707963267948966",
                     "--settings-b", "0.7853981633974483,2.356194490192345",
                     "--w-bins", "1"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7949a413aac2cf23bcf190606bc6fcf409b779c0caad85cf2b6adb8d81cb4c7f")


def _random_streams(seed, n_a, n_b):
    """Sorted streams, 3 station-A and 2 station-B settings, tag gaps 0..11."""
    out = []
    for i, (n, n_settings) in enumerate(((n_a, 3), (n_b, 2))):
        u = uniform_block(seed, i * 10**6, i * 10**6 + max(n, 1), 3)[:, :n]
        out.append(EventStream(np.cumsum((u[0] * 12).astype(np.int64)),
                               (u[1] * n_settings).astype(np.int64),
                               np.where(u[2] < 0.5, 1, -1)))
    return out


def _cells(counts):
    return [(key, (c.n_pp, c.n_pm, c.n_mp, c.n_mm, c.n_total))
            for key, c in counts.items()]


class TestPinnedMatching:
    @pytest.mark.parametrize("w_bins, digest", [
        (1, "a4356259f3d81498511734af9e7d2ab6e37d25c4c38c85f779e58bb4f458b4cc"),
        (5, "f6643a624127a314ff30455e47956bcee0d6a11f278dc8296f8c56e900c95608"),
        (40, "5098944681e892ac7c69717c180799282712e83597bfa55d564400eedcf9969d"),
    ])
    def test_random_multi_setting_streams(self, w_bins, digest):
        cells = _cells(match_streams(*_random_streams(11, 4000, 3500), w_bins))
        assert [key for key, _ in cells] == [(a, b) for a in range(3) for b in range(2)]
        # keys in order, the four cell counts and n_total, all Python ints
        assert hashlib.sha256(repr(cells).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n_a, n_b", [(0, 50), (50, 0), (0, 0)])
    def test_empty_stream(self, n_a, n_b):
        assert match_streams(*_random_streams(11, n_a, n_b), 5) == {}

    def test_exported_two_by_two_layout(self):
        w, n = 5, 3000
        blocks = {
            (i, j): run_pairs(Setting.from_polar(a), Setting.from_polar(b),
                              SimParams(w, 37.5, 3.0, n, seed=1 + 2 * i + j))
            for i, a in enumerate((0.0, math.pi / 2))
            for j, b in enumerate((math.pi / 4, 3 * math.pi / 4))
        }
        cols_a, cols_b, offset = [], [], 0
        for (i, j), blk in blocks.items():  # the four cells one after another in time
            for cols, s in zip((cols_a, cols_b), export_station_streams(blk, i, j)):
                cols.append((s.k + offset, s.setting_index, s.x))
            offset += n * 2 * (blk.params.max_tag + 1)
        stream_a, stream_b = (EventStream(*map(np.concatenate, zip(*cols)))
                              for cols in (cols_a, cols_b))
        counts = match_streams(stream_a, stream_b, w)
        assert list(counts) == list(blocks)
        for key, blk in blocks.items():
            t = tally(blk, w)
            c = counts[key]
            assert (c.n_pp, c.n_pm, c.n_mp, c.n_mm) == (t.n_pp, t.n_pm, t.n_mp, t.n_mm)
            assert c.n_total == 2 * n  # min of per-setting event counts


# each spin at each lambda; at some setting the local s_x * a_x is -0.0, s_z
# is +-0.0, or the projection is exactly +-0 or +-1
_CRAFTED_SPINS = np.array([
    [-0.0, 1.0, -0.0], [0.0, -1.0, -0.0], [-0.0, 1.0, 0.0], [0.0, 0.0, -0.0],
    [0.0, -1.0, 0.0], [-0.0, -1.0, 0.0],
    [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [1.0, -0.0, 0.0], [-1.0, 0.0, -0.0],
    [0.0, 0.6, 0.8], [-0.0, -0.6, -0.8],
    [-6.123233995736766e-17, 0.0, 1.0],  # cancels to +0 at pi/2
])
_CRAFTED_THETAS = [0.0, math.pi / 2, math.pi, -math.pi / 2, 1.0]


def built_columns(engine, chunk):
    """The engine's ``-sx``, ``-sz``, ``lambda2``, ``x1`` and ``k1`` over its
    whole range, as ``_build`` writes them ``chunk`` trials at a time."""
    n = engine.params.n_trials
    cols = pipeline._columns(n)
    draws = pipeline._draw_buffers(min(n, chunk))
    for lo in range(0, n, chunk):
        engine._build(lo, draws, *(col[lo:lo + chunk] for col in cols))
    return cols


class TestEngineMatchesReferenceTally:
    @settings(max_examples=30, deadline=None)
    @given(
        theta=st.floats(0.0, math.pi),
        windows=st.lists(st.integers(1, 45), min_size=1, max_size=4),
        n_blocks=st.sampled_from([1, 7, 100]),
        d=st.sampled_from([0.0, 2.2, 3.0, 5.0]),
        t0_ratio=st.sampled_from([0.6, 37.5]),
        seed=st.integers(0, 2**64 - 1),
        chunk=st.integers(37, 600),
    )
    def test_cached_and_chunked(self, theta, windows, n_blocks, d, t0_ratio, seed, chunk):
        p = SimParams(w_bins=1, t0_ratio=t0_ratio, d=d, n_trials=1500, seed=seed)
        # the edges of the window-cumulative table: the narrowest window, its
        # last row (max_tag), one past it and a window far outside it
        windows = windows + [1, p.max_tag, p.max_tag + 1, 5 * p.max_tag + 3]
        blk = run_pairs(Setting.from_polar(0.0), Setting.from_polar(theta), p)
        # row i holds windows[i], repeats too
        expected = np.array([tally_blocks(blk, w, n_blocks) for w in windows])
        engine = ThetaEngine(p)
        cached = engine.block_counts_over([theta], windows, n_blocks)[:, 0]
        # a chunk size that is no multiple of the block size puts chunk
        # boundaries inside jackknife blocks
        with mock.patch.object(pipeline, "_CHUNK", chunk):
            chunked = ThetaEngine(p).block_counts_over([theta], windows, n_blocks)[:, 0]
        for got in (cached, chunked):
            assert got.shape == expected.shape and np.array_equal(got, expected)

        # one block, as the selection grid tallies, and the coincidence
        # frequency read off it
        one = engine.block_counts_over([theta], windows, 1)[:, 0]
        assert one.shape == (len(windows), 1, 4) and one.dtype == np.int64
        for w, cells in zip(windows, one):
            merged = tally_blocks(blk, w, 1)
            assert np.array_equal(cells, merged)
            assert np.array_equal(engine.block_counts_at(theta, w, 1), merged)
            assert engine.estimate_at(theta, w, 1).gamma == int(merged.sum()) / p.n_trials

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        thetas=st.lists(st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
                        min_size=1, max_size=5),
        n_blocks=st.sampled_from([1, 7, 100]),
        d=st.sampled_from([0.0, 2.2, 3.0, 5.0]),
        t0_ratio=st.sampled_from([0.6, 37.5]),
        seed=st.integers(0, 2**64 - 1),
        n_trials=st.integers(1, 300),
        chunk=st.sampled_from([1, 37, 600, pipeline._CHUNK]),
        batch=st.sampled_from([1, 2, 3]),
    )
    def test_batch_matches_reference_at_every_angle(self, data, thetas, n_blocks, d, t0_ratio,
                                                    seed, n_trials, chunk, batch):
        p = SimParams(w_bins=1, t0_ratio=t0_ratio, d=d, n_trials=n_trials, seed=seed)
        windows = data.draw(st.lists(st.integers(1, p.max_tag + 1), min_size=1, max_size=3))
        thetas = thetas + thetas[:1]  # a repeated angle
        # angle counts of 1 to 5, so some end in a part batch
        with mock.patch.multiple(pipeline, _CHUNK=chunk, _BATCH=batch):
            engine = ThetaEngine(p)
            got = engine.block_counts_over(thetas, windows, n_blocks)
            merged = engine.block_counts_over(thetas, windows, 1)
            single = engine.block_counts_over(thetas, windows[:1], n_blocks)
        assert got.shape == (len(windows), len(thetas), min(n_blocks, n_trials), 4)
        assert merged.shape == (len(windows), len(thetas), 1, 4)
        assert np.array_equal(single, got[:1])
        for w, cells_w, merged_w in zip(windows, got, merged):
            for theta, cells, one in zip(thetas, cells_w, merged_w):
                blk = run_pairs(Setting.from_polar(0.0), Setting.from_polar(theta), p)
                assert np.array_equal(cells, tally_blocks(blk, w, n_blocks))
                assert np.array_equal(one, tally_blocks(blk, w, 1))

    def test_table_limit(self):
        p = SimParams(w_bins=10**9, t0_ratio=1e9, d=3.0, n_trials=5, seed=1)
        engine = ThetaEngine(p)
        with mock.patch.object(ThetaEngine, "_cumulative", side_effect=AssertionError):
            for n_blocks in (1, 100):  # an 8 GB lookup table
                with pytest.raises(ValueError, match="count table") as err:
                    engine.block_counts_at(1.0, n_blocks=n_blocks)
                for named in ("w_bins=1000000000", "t0_ratio=1000000000.0",
                              f"n_blocks={n_blocks}"):
                    assert named in str(err.value)
        # a narrow window needs a narrow table at any t0_ratio
        blk = run_pairs(Setting.from_polar(0.0), Setting.from_polar(1.0), p)
        for n_blocks in (1, 100):
            assert np.array_equal(engine.block_counts_at(1.0, 3, n_blocks),
                                  tally_blocks(blk, 3, n_blocks))
        # a wide window at 100 blocks takes 6.4 KB of counts and an 800 KB
        # lookup table, not the 320 MB of one row a tag difference
        p = SimParams(w_bins=10**5, t0_ratio=1e5, d=3.0, n_trials=200, seed=1)
        blk = run_pairs(Setting.from_polar(0.0), Setting.from_polar(1.0), p)
        assert np.array_equal(ThetaEngine(p).block_counts_at(1.0, n_blocks=100),
                              tally_blocks(blk, 10**5, 100))
        # the limit is inclusive: 2 distinct angles of 7 blocks of 2 classes of
        # 4 int64 counts, and 8 bytes for each of the max_tag + 1 = 39 differences
        p = SimParams(w_bins=1, t0_ratio=37.5, d=3.0, n_trials=50, seed=1)
        engine = ThetaEngine(p)
        with mock.patch.object(pipeline, "_TABLE_LIMIT", 32 * 2 * 7 * 2 + 8 * 39):
            engine.block_counts_over([1.0, 2.0, 1.0], [16, 39], 7)
        with mock.patch.object(pipeline, "_TABLE_LIMIT", 32 * 2 * 7 * 2 + 8 * 39 - 1), \
                pytest.raises(ValueError, match="n_blocks=7"):
            engine.block_counts_over([1.0, 2.0, 1.0], [16, 39], 7)

    @pytest.mark.parametrize("t0_ratio, d", [(1000.0, 3.0), (1.025, 3.0), (1000.0, 5.0),
                                             (37.5, 0.0)])
    def test_product_law_matches_power(self, t0_ratio, d):
        # the crafted spins' components and projections, then 10^6 seeded ones
        crafted = np.concatenate([_CRAFTED_SPINS.ravel()] + [
            _CRAFTED_SPINS[:, 0] * a[0] + _CRAFTED_SPINS[:, 1] * a[1] + _CRAFTED_SPINS[:, 2] * a[2]
            for a in (Setting.from_polar(t).vec for t in _CRAFTED_THETAS)])
        u = uniform_block(7, 0, 10**6, 2)
        c = np.concatenate([crafted, crafted, 2.0 * u[0] - 1.0])
        lam = np.concatenate([np.repeat([0.0, 1.0 - 2.0**-53], len(crafted)), u[1]])
        with mock.patch.object(model, "_PRODUCT_D", -1):  # np.power at every d
            x_pow, k_pow = _station_kernel(c.copy(), lam, t0_ratio, d)
            pow_u = np.maximum(1.0 - c * c, 0.0)
            _half_power(pow_u, d)
        x, k = _station_kernel(c.copy(), lam, t0_ratio, d)
        neg, k_out = _station_kernel(c.copy(), lam, t0_ratio, d,
                                     out=(np.empty(len(c), dtype=bool),
                                          np.empty(len(c), dtype=np.int64)))
        assert np.array_equal(x, x_pow) and np.array_equal(k, k_pow)
        assert np.array_equal(neg, x_pow < 0) and np.array_equal(k_out, k_pow)
        # the forms really differ, in the last ulp of some u ** (d / 2)
        prod_u = np.maximum(1.0 - c * c, 0.0)
        _half_power(prod_u, d)
        assert (prod_u != pow_u).any() == (d != 0)

    @pytest.mark.parametrize("d", range(_PRODUCT_D + 1))
    def test_half_power_keeps_its_product_order(self, d):
        # sqrt(u), times u for each further half power, then u times that:
        # the order every pinned digest was made in, with or without a buffer
        u = uniform_block(9, 0, 5000, 1)[0]
        acc = np.sqrt(u) if d % 2 else np.ones_like(u)
        for _ in range(d // 2 - 1):
            acc = acc * u
        expected = u * acc if d // 2 else acc
        for tmp in (None, np.empty_like(u)):
            got = u.copy()
            _half_power(got, d, tmp)
            assert got.tobytes() == expected.tobytes()

    def test_returned_counts_are_copies(self):
        p = SimParams(w_bins=1, t0_ratio=37.5, d=3.0, n_trials=2000, seed=4)
        engine = ThetaEngine(p)
        first = engine.block_counts_over([1.2], [1, 16], n_blocks=1)
        expected = first.copy()
        first += 1000
        again = engine.block_counts_over([1.2], [1, 16], n_blocks=1)
        assert np.array_equal(again, expected)
        gamma = engine.estimate_at(1.2, 16, n_blocks=1).gamma
        assert gamma == int(expected[1].sum()) / p.n_trials

    def test_repeated_window_counted_once(self):
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**5, seed=3)
        engine = ThetaEngine(p)
        single = engine.block_counts_at(1.0, 16)
        bounds, real = [], ThetaEngine._cumulative

        def spy(self, thetas, edges, asked):
            bounds.append(asked)
            return real(self, thetas, edges, asked)

        with mock.patch.object(ThetaEngine, "_cumulative", spy):
            twice = engine.block_counts_over([1.0], [16, 16])[:, 0]
            wide = engine.block_counts_over([1.0], [285, 16, 285])[:, 0]
        # each distinct window is one bound of the tally, and gets a row each time it is asked
        assert bounds == [[16], [16, 285]]
        assert twice.shape == (2, 100, 4) and all(np.array_equal(c, single) for c in twice)
        assert wide.shape == (3, 100, 4) and np.array_equal(wide[1], single)
        assert np.array_equal(wide[0], wide[2])
        assert np.array_equal(wide[0], engine.block_counts_at(1.0, 285))

    @settings(max_examples=25, deadline=None)
    @given(
        theta=st.floats(0.0, math.pi),
        d=st.sampled_from([0.0, 2.2, 3.0]),
        t0_ratio=st.sampled_from([0.6, 37.5]),
        seed=st.integers(0, 2**64 - 1),
        n_trials=st.integers(1, 700),
        chunk=st.sampled_from([1, 37, 600, pipeline._CHUNK]),
    )
    def test_kept_columns_at_any_chunk(self, theta, d, t0_ratio, seed, n_trials, chunk):
        p = SimParams(w_bins=1, t0_ratio=t0_ratio, d=d, n_trials=n_trials, seed=seed)
        blk = run_pairs(Setting.from_polar(0.0), Setting.from_polar(theta), p,
                        keep_hidden=True)
        sx, _, sz, _, lam2 = blk.hidden
        windows = [1, 3, p.max_tag, p.max_tag + 1]
        engine = ThetaEngine(p)
        expected = (-sx, -sz, lam2, blk.x1, blk.k1)
        assert [(a.dtype, a.tobytes()) for a in built_columns(engine, chunk)] == [
            (a.dtype, a.tobytes()) for a in expected]
        # chunk boundaries fall inside the jackknife blocks the tallies count
        with mock.patch.object(pipeline, "_CHUNK", chunk):
            for n_blocks in (1, 7, 100):
                got = engine.block_counts_over([theta], windows, n_blocks)[:, 0]
                for w, cells in zip(windows, got):
                    assert np.array_equal(cells, tally_blocks(blk, w, n_blocks))

    @pytest.mark.parametrize("theta", _CRAFTED_THETAS)
    @pytest.mark.parametrize("d", [0.0, 3.0])
    def test_dropped_terms_are_signed_zeros(self, theta, d):
        spins = _CRAFTED_SPINS
        lam = np.repeat([0.0, 1.0 - 2.0**-53], len(spins))
        sx, sy, sz = np.tile(spins, (2, 1)).T
        p = SimParams(w_bins=1, t0_ratio=37.5, d=d, n_trials=len(lam), seed=1)
        (ax, ay, az), (zx, zy, zz) = Setting.from_polar(theta).vec, Setting.from_polar(0.0).vec
        assert ay == 0.0 and (zx, zy, zz) == (0.0, 0.0, 1.0)

        def law(c):
            return _station_kernel(c, lam, p.t0_ratio, p.d)

        three1, three2 = sx * zx + sy * zy + sz * zz, -sx * ax + -sy * ay + -sz * az
        two2 = -sx * ax + -sz * az
        if theta == math.pi / 2:  # the forms differ here in the sign of a zero
            assert (np.signbit(three2) != np.signbit(two2)).any()
        assert (np.signbit(three1) != np.signbit(sz)).any()
        x1, k1 = law(three1.copy())
        x2, k2 = law(three2.copy())
        for (x, k), (x_ref, k_ref) in ((law(sz.copy()), (x1, k1)), (law(two2), (x2, k2))):
            assert np.array_equal(x, x_ref) and np.array_equal(k, k_ref)

        # the engine itself, fed these spins, counts every trial as the
        # three-term law does, at every window
        def crafted(seed, first, last, y=True, out=None, work=None):
            return (sx[first:last].copy(), None, sz[first:last].copy(),
                    lam[first:last].copy(), lam[first:last].copy())

        windows = list(range(1, p.max_tag + 2))
        with mock.patch.object(pipeline, "_hidden_arrays", crafted):
            engine = ThetaEngine(p)
            built = built_columns(engine, len(lam))
            got = engine.block_counts_over([theta], windows, n_blocks=len(lam))[:, 0]
        assert np.array_equal(built[3], x1) and np.array_equal(built[4], k1)
        blk = TrialBlock(p, x1, k1, x2, k2)
        assert all(np.array_equal(c, tally_blocks(blk, w, len(lam))) for w, c in zip(windows, got))

    def test_kept_memory(self):
        # no call leaves an ensemble, or any other array, on the engine
        def held(engine):
            arrays = [v for v in vars(engine).values() if isinstance(v, np.ndarray)]
            arrays += [a for v in vars(engine).values() if isinstance(v, tuple)
                       for a in v if isinstance(a, np.ndarray)]
            return sum(a.nbytes for a in arrays)

        p = SimParams(w_bins=1, t0_ratio=37.5, d=3.0, n_trials=1001, seed=2)
        # one angle; 17 angles at one block; 17 angles at 100 blocks and
        # every window up to max_tag + 1 = 39 (124,800 bytes of tables each);
        # and an estimate
        thetas = np.linspace(0.0, math.pi, 17)
        engine = ThetaEngine(p)
        assert held(engine) == 0
        for call in (lambda: engine.block_counts_at(1.0, 39),
                     lambda: engine.block_counts_over(thetas, [39], n_blocks=1),
                     lambda: engine.block_counts_over(thetas, range(1, 40)),
                     lambda: engine.estimate_at(1.0, 16)):
            call()
            assert held(engine) == 0 and set(vars(engine)) == {"params", "first_trial"}

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        thetas=st.lists(st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
                        min_size=1, max_size=4),
        n_blocks=st.sampled_from([1, 7, 100]),
        d=st.sampled_from([0.0, 3.0, 5.0]),
        t0_ratio=st.sampled_from([0.6, 37.5]),
        seed=st.integers(0, 2**64 - 1),
        n_trials=st.integers(1, 300),
        chunk=st.sampled_from([1, 37, 600, pipeline._CHUNK]),
        workers=st.sampled_from([1, 2, 3]),
        windows=st.sampled_from(["figure", "one", "every", "past", "drawn"]),
        batch=st.sampled_from([1, 2, 3]),
    )
    def test_batch_at_any_worker_count(self, data, thetas, n_blocks, d, t0_ratio, seed,
                                       n_trials, chunk, workers, windows, batch):
        p = SimParams(w_bins=1, t0_ratio=t0_ratio, d=d, n_trials=n_trials, seed=seed)
        # the figure's windows; one window; every window; one window past
        # max_tag, a single class; and windows drawn in any order, repeats too
        if windows == "drawn":
            windows = data.draw(st.lists(st.integers(1, p.max_tag + 1), min_size=1, max_size=3))
        else:
            windows = {"figure": [1, 16, 285], "one": [3],
                       "every": list(range(1, p.max_tag + 2)), "past": [p.max_tag + 5]}[windows]
        with mock.patch.multiple(pipeline, _CHUNK=chunk, _cpus=lambda: workers, _BATCH=batch):
            got = ThetaEngine(p).block_counts_over(thetas, windows, n_blocks)
        assert got.shape == (len(windows), len(thetas), min(n_blocks, n_trials), 4)
        for w, cells_w in zip(windows, got):
            for theta, cells in zip(thetas, cells_w):
                blk = run_pairs(Setting.from_polar(0.0), Setting.from_polar(theta), p)
                assert np.array_equal(cells, tally_blocks(blk, w, n_blocks))

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_angles_counted_a_batch_a_call(self, batch):
        # each chunk builds station 1 with one kernel call, then makes one
        # call for each batch of distinct angles, the last one part full
        p = SimParams(w_bins=1, t0_ratio=37.5, d=3.0, n_trials=100, seed=2)
        thetas = [0.1, 0.2, 0.3, 0.4, 0.5, 0.1]  # 5 distinct angles
        rows = []

        def spy(c, *args, **kwargs):
            rows.append(len(c) if c.ndim == 2 else 0)
            return _station_kernel(c, *args, **kwargs)

        with mock.patch.multiple(pipeline, _CHUNK=30, _cpus=lambda: 1, _BATCH=batch), \
                mock.patch.object(pipeline, "_station_kernel", spy):
            ThetaEngine(p).block_counts_over(thetas, [1, 16])
        per_chunk = [0] + [min(batch, 5 - j) for j in range(0, 5, batch)]
        assert len(per_chunk) == 1 + math.ceil(5 / batch)
        assert rows == per_chunk * 4  # 4 chunks of 30 trials

    def test_peak_memory_of_a_figure_call(self):
        # one worker's chunk buffers, its columns and the figure's tables: the
        # tally reuses the draw buffers, so a call of 37 angles, 3 windows and
        # 100 blocks at 2^16 trials peaks under 4.82 MiB
        p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=1 << 16, seed=5)
        thetas = np.linspace(0.0, math.pi, 37)
        engine = ThetaEngine(p)
        with mock.patch.object(pipeline, "_cpus", lambda: 1):
            tracemalloc.start()
            try:
                engine.block_counts_over(thetas, [1, 16, 285], 100)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 4.82 * 2**20

    def test_empty_angle_grid_builds_nothing(self):
        p = SimParams(w_bins=16, t0_ratio=37.5, d=3.0, n_trials=500, seed=2)
        engine = ThetaEngine(p)
        with mock.patch.object(pipeline, "_hidden_arrays", side_effect=AssertionError):
            for got, n_blocks in ((engine.block_counts_over([], [16]), 100),
                                  (engine.block_counts_over([], [3], n_blocks=7), 7)):
                assert got.shape == (1, 0, n_blocks, 4) and got.dtype == np.int64
            many = engine.block_counts_over([], [1, 16, 285])
            assert many.shape == (3, 0, 100, 4) and many.dtype == np.int64

    def test_empty_window_list_is_named(self):
        p = SimParams(w_bins=16, t0_ratio=37.5, d=3.0, n_trials=500, seed=2)
        for windows in ([], (), range(1, 1)):
            with pytest.raises(ValueError, match="at least one window"):
                ThetaEngine(p).block_counts_over([0.5], windows)

    def test_workers_follow_the_affinity_and_the_chunks(self):
        p = SimParams(w_bins=1, t0_ratio=37.5, d=3.0, n_trials=100, seed=2)
        seen = []

        def spy(max_workers):
            seen.append(max_workers)
            return real(max_workers)

        real = pipeline.ThreadPoolExecutor
        with mock.patch.object(pipeline, "ThreadPoolExecutor", side_effect=spy), \
                mock.patch.object(pipeline, "_CHUNK", 30), \
                mock.patch.object(pipeline.os, "sched_getaffinity", return_value={0, 1, 2}):
            ThetaEngine(p).block_counts_at(1.0)  # 4 chunks on 3 CPUs: 2 more threads
            with mock.patch.object(pipeline.os, "sched_getaffinity", return_value=set(range(8))):
                ThetaEngine(p).block_counts_at(1.0)  # 8 CPUs, but 4 chunks
            with mock.patch.object(pipeline, "_cpus", lambda: 1):
                ThetaEngine(p).block_counts_at(1.0)  # no thread
        assert seen == [2, 3]

    def test_batches_shared_by_many_workers(self):
        # more workers than cores, switching threads every microsecond, on one
        # batch of angles: its tables take one worker's counts at a time, so
        # no update is lost, however the workers' chunks interleave
        p = SimParams(w_bins=1, t0_ratio=37.5, d=3.0, n_trials=2000, seed=6)
        thetas, windows = [0.3, 1.1], [1, 16]
        with mock.patch.multiple(pipeline, _CHUNK=50, _cpus=lambda: 1):
            expected = ThetaEngine(p).block_counts_over(thetas, windows, 1)
        inside, most, guard = [0], [0], threading.Lock()

        def spy(*args):
            with guard:
                inside[0] += 1
                most[0] = max(most[0], inside[0])
            time.sleep(1e-4)  # lets another worker in, unless the batch's lock is held
            add_cells(*args)
            with guard:
                inside[0] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.multiple(pipeline, _CHUNK=50, _cpus=lambda: 6, _BATCH=2,
                                     add_cells=spy):
                got = ThetaEngine(p).block_counts_over(thetas, windows, 1)
        finally:
            sys.setswitchinterval(interval)
        assert most == [1]
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("first_trial", [1.5, True, np.float64(2.0), "1", -1])
    def test_offset_must_be_an_integer(self, first_trial):
        p = SimParams(w_bins=1, t0_ratio=37.5, d=3.0, n_trials=10, seed=2)
        with pytest.raises((ValueError, TypeError)) as err:
            ThetaEngine(p, first_trial=first_trial)
        if not isinstance(first_trial, str):
            assert err.type is ValueError and "first_trial" in str(err.value)

    def test_trials_stop_at_the_last_counter(self):
        p = SimParams(w_bins=1, t0_ratio=37.5, d=3.0, n_trials=10, seed=2)
        last = ThetaEngine(p, first_trial=2**64 - 10)  # trials up to 2**64 - 1
        assert last.block_counts_at(1.0).sum() >= 0
        for first in (2**64 - 9, 2**64):
            with pytest.raises(ValueError, match="past 2\\*\\*64"):
                ThetaEngine(p, first_trial=first)
