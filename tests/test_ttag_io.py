import math
import re
import threading
import warnings
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprbsim import (
    EventStream,
    Setting,
    SimParams,
    TtagFormatError,
    export_station_streams,
    match_streams,
    read_events,
    run_pairs,
    tally,
    write_events,
)
from eprbsim import pipeline, ttag_io
from eprbsim.ttag_io import (
    RunManifest,
    _format_rows,
    file_digest,
    format_real,
    parse_config,
    parse_keyvalue,
    read_manifest,
    verify_manifest,
    write_manifest,
    write_results_csv,
)
from eprbsim.errors import UsageError

from . import reference


# tags and setting indices of every decimal width up to int64's 19 digits
_WIDE = st.one_of(st.integers(0, 9), st.integers(0, 2**63 - 1),
                  st.sampled_from([10**18 - 1, 10**18, 2**63 - 1]))


@st.composite
def event_streams(draw):
    n = draw(st.integers(0, 40))
    ks = sorted(draw(st.lists(_WIDE, min_size=n, max_size=n)))
    settings_ = draw(st.lists(st.one_of(st.integers(0, 3), _WIDE), min_size=n, max_size=n))
    xs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return EventStream(np.array(ks, np.int64), np.array(settings_, np.int64), xs)


@st.composite
def ttag_bodies(draw):
    """TTAG-CSV bodies: valid rows with up to three lines swapped for odd ones."""
    n = draw(st.integers(1, 12))
    ks = np.cumsum(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))).tolist()
    lines = [f"{k},{draw(st.integers(0, 2))},{draw(st.sampled_from([-1, 1]))}" for k in ks]
    odd = st.sampled_from(["", "# x", "1,0,1 # c", "1,0", "1,0,1,", "x,0,1", "0,0,3",
                           "5,-1,1", "0,0,1", " 2 ,1, -1", "+4,0,1", "-0,1,1", "9,0,-1",
                           "-,0,1", "0,1-2,1", "0,0,--1",
                           "9223372036854775807,0,1", "9223372036854775808,0,1",
                           "0,99999999999999999999,1", "-9223372036854775808,0,1",
                           "0,-99999999999999999999,1", "0,0,-9223372036854775809",
                           "1000000000000000000,1,-1", "0,000000000000000000001,1"])
    for _ in range(draw(st.integers(0, 3))):
        lines[draw(st.integers(0, n - 1))] = draw(odd)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def assert_round_trip(stream, path):
    write_events(stream, path)
    assert path.read_bytes() == reference.ttag_file(stream)
    assert read_events(path) == stream


def assert_reads_as_line_reader(body, path):
    """A read of ``body`` gives the rows, or the first error, of ``reference.ttag_rows``."""
    path.write_text("# ttag-csv 1\n" + body)
    try:
        rows = reference.ttag_rows(path, body)
    except TtagFormatError as ex:
        with pytest.raises(TtagFormatError) as got:
            read_events(path)
        assert str(got.value) == str(ex)
    else:
        assert read_events(path) == EventStream(*np.reshape(rows, (-1, 3)).T)


class TestEventStream:
    def test_record_access(self):
        s = EventStream([1, 5], [0, 1], [1, -1])
        assert (s.k[1], s.setting_index[1], s.x[1]) == (5, 1, -1)
        assert len(s) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            EventStream([3, 1], [0, 0], [1, 1])  # decreasing tags
        with pytest.raises(ValueError):
            EventStream([1], [0], [2])  # bad outcome
        with pytest.raises(ValueError):
            EventStream([-1], [0], [1])  # negative tag
        with pytest.raises(ValueError):
            EventStream([1, 2], [0], [1, 1])  # ragged columns

    @pytest.mark.parametrize("columns, message", [
        (([0, 5, 4], [0, 0, 0], [1, 1, 1]), "tags must be non-decreasing"),
        (([0, -1], [0, 0], [1, 1]), "tags must be non-negative"),
        (([0, 1], [0, -3], [1, 1]), "setting indices must be non-negative"),
        (([0, 1], [0, 0], [1, 0]), "outcomes must be -1 or +1"),
        (([0, 1], [0, 0], [-2, 1]), "outcomes must be -1 or +1"),
        (([0, 1], [0, 0], [1], ), "column lengths differ"),
    ])
    def test_each_fault_is_named(self, columns, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            EventStream(*columns)

    @pytest.mark.parametrize("x", [
        [1, 255], np.array([1, 255], np.uint8), [1, -255], np.array([1, -255], np.int16),
        [1, 2**32 + 1], np.array([1, 2**32 + 1], np.uint64),
        [1, 2**63 - 1], np.array([1, 2**63 - 1], np.uint64),
    ], ids=repr)
    def test_outcomes_are_refused_not_wrapped(self, x):
        # each of these narrows to an int8 of -1 or +1
        with pytest.raises(ValueError, match=re.escape("outcomes must be -1 or +1")):
            EventStream([0, 1], [0, 0], x)

    def test_column_dtypes(self, tmp_path):
        stream = EventStream([1, 5], [0, 1], [1, -1])
        path = tmp_path / "s.csv"
        for body in ("1,0,1\n5,1,-1\n", "1,0,+1\n5,1,-1\n"):  # canonical, then lenient
            path.write_text("# ttag-csv 1\n" + body)
            for s in (stream, read_events(path)):
                assert (s.k.dtype, s.setting_index.dtype, s.x.dtype) == (
                    np.int64, np.int64, np.int8)
            assert read_events(path) == stream

    def test_empty_and_equal_tags_pass(self):
        assert len(EventStream([], [], [])) == 0
        assert len(EventStream([7, 7, 7], [2, 0, 1], [-1, 1, -1])) == 3


class TestTtagRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(stream=event_streams())
    def test_lossless(self, stream, tmp_path_factory):
        assert_round_trip(stream, tmp_path_factory.mktemp("ttag") / "s.csv")

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.integers(-2**63, 2**63 - 1)] * 3), min_size=1))
    def test_formats_any_int64(self, rows):
        cols = [np.array(c, np.int64) for c in zip(*rows)]
        assert _format_rows(cols).tobytes() == b"".join(b"%d,%d,%d\n" % r for r in rows)

    def test_reserialization_is_bit_identical(self, tmp_path):
        p = SimParams(w_bins=1, t0_ratio=100.0, d=3.0, n_trials=10**4, seed=12)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(1.0), p)
        s1, _ = export_station_streams(blk)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_events(s1, first)
        write_events(read_events(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# ttag-csv 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on a parse of no rows
            assert read_events(path) == EventStream([], [], [])

    def test_header_is_versioned(self, tmp_path):
        path = tmp_path / "s.csv"
        write_events(EventStream([0], [0], [1]), path)
        assert path.read_text().splitlines()[0] == "# ttag-csv 1"


class TestTtagErrors:
    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v2.csv"
        path.write_text("# ttag-csv 2\n0,0,1\n")
        with pytest.raises(TtagFormatError, match="version 2"):
            read_events(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "no.csv"
        path.write_text("0,0,1\n")
        with pytest.raises(TtagFormatError, match="header"):
            read_events(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# ttag-csv 1\n0,0,1\nnot-a-line\n")
        with pytest.raises(TtagFormatError, match=":3"):
            read_events(path)

    def test_non_monotone_tags_rejected(self, tmp_path):
        path = tmp_path / "mono.csv"
        path.write_text("# ttag-csv 1\n5,0,1\n1,0,1\n")
        with pytest.raises(TtagFormatError, match="non-decreasing"):
            read_events(path)

    def test_out_of_range_fields(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("# ttag-csv 1\n0,0,3\n")
        with pytest.raises(TtagFormatError, match="out of range"):
            read_events(path)

    @pytest.mark.parametrize("body, where", [
        (b"0,0,1\n\n1,0,1\n", ":3: expected 'k,setting_index,x'"),  # loadtxt skips it
        (b"0,0,1\n1,0,1\n\n", ":4: expected 'k,setting_index,x'"),
        (b"0,0,1\n# x\n1,0,1\n", ":3: expected 'k,setting_index,x'"),
        (b"0,0,1\n1,0,1 # c\n", ":3: non-integer field"),
        (b"1,0\n", ":2: expected 'k,setting_index,x'"),  # loadtxt gives shape (1, 2)
        (b"0,0,1\n1,\xff,1\n", ":3: non-ASCII byte"),
        (b"0,0,1\r\n1,0,1\r\n", ":2: carriage return"),
        (b"1_0,0,1\n", ":2: non-integer field"),  # int() reads it as 10
        (b"0,0,1\n-,0,1\n", ":3: non-integer field"),  # np.fromstring reads 0
        (b"0,0,1\n9223372036854775808,0,1\n", ":3: non-integer field"),  # or 2^63 - 1
        (b"0,0,-99999999999999999999\n", ":2: non-integer field"),
    ], ids=["blank-line", "trailing-blank-line", "comment-line", "trailing-comment",
            "one-short-row", "non-ascii", "crlf", "underscore", "lone-minus",
            "int64-overflow", "negative-overflow"])
    def test_line_a_bulk_parse_would_pass(self, tmp_path, body, where):
        path = tmp_path / "s.csv"
        path.write_bytes(b"# ttag-csv 1\n" + body)
        with pytest.raises(TtagFormatError, match=f"s.csv{where}"):
            read_events(path)

    def test_plus_sign_and_spaces_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# ttag-csv 1\n+1, 0 ,-1\n")
        assert read_events(path) == EventStream([1], [0], [-1])

    def test_first_bad_line_is_named(self, tmp_path):
        # a range error before a row the parse rejects, and before a blank line
        path = tmp_path / "s.csv"
        path.write_text("# ttag-csv 1\n0,0,1\n0,0,3\nx\n\n")
        with pytest.raises(TtagFormatError, match=":3: field out of range"):
            read_events(path)

    @settings(max_examples=150, deadline=None)
    @given(body=ttag_bodies())
    def test_matches_line_by_line_reader(self, body, tmp_path_factory):
        assert_reads_as_line_reader(body, tmp_path_factory.mktemp("ttag") / "s.csv")


@contextmanager
def workers(cpus, read_bytes=64):
    """``cpus`` workers, chunks of 3 rows and pieces of ``read_bytes``; 64 bytes
    hold the longest canonical line, 44 bytes with its LF."""
    with mock.patch.object(pipeline, "_cpus", lambda: cpus), \
            mock.patch.multiple(ttag_io, _WRITE_ROWS=3, _READ_BYTES=read_bytes):
        yield


class TestTtagWorkers:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(stream=event_streams())
    def test_lossless_at_any_worker_count(self, cpus, stream, tmp_path_factory):
        with workers(cpus):
            assert_round_trip(stream, tmp_path_factory.mktemp("ttag") / "s.csv")

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(body=ttag_bodies())
    def test_first_bad_line_at_any_worker_count(self, cpus, body, tmp_path_factory):
        with workers(cpus, read_bytes=16):  # two or three short lines a piece
            assert_reads_as_line_reader(body, tmp_path_factory.mktemp("ttag") / "s.csv")

    @pytest.mark.parametrize("line, what", [
        ("0,0,3", "field out of range"),  # a canonical piece, refused after the parse
        ("7,0,1", "tags must be non-decreasing"),
        ("x,0,1", "non-integer field"),  # a piece only the lenient route reads
        ("1,0", "expected 'k,setting_index,x'"),
    ])
    def test_bad_line_in_a_later_piece(self, tmp_path, line, what):
        lines = [f"{100 + i},{i % 3},{1 - 2 * (i % 2)}" for i in range(60)]
        lines[47] = line
        path = tmp_path / "s.csv"
        path.write_text("# ttag-csv 1\n" + "\n".join(lines) + "\n")
        for cpus in (1, 2, 3):
            with workers(cpus), pytest.raises(TtagFormatError) as got:
                read_events(path)
            assert str(got.value) == f"{path}:49: {what}"

    @pytest.mark.parametrize("target", ["_format_rows", "_parse_piece"])
    def test_worker_error_reaches_caller(self, tmp_path, target):
        real, raised = getattr(ttag_io, target), threading.Event()

        def failing(*args):
            # this thread's first chunk waits until the other worker has raised
            if threading.current_thread() is not threading.main_thread():
                raised.set()
                raise RuntimeError("in a worker")
            assert raised.wait(10)
            return real(*args)

        stream = EventStream(np.arange(60), np.zeros(60, np.int64), np.ones(60, np.int64))
        path = tmp_path / "s.csv"
        write_events(stream, path)
        before = threading.active_count()
        with workers(2), mock.patch.object(ttag_io, target, failing), \
                pytest.raises(RuntimeError, match="in a worker"):
            write_events(stream, path) if target == "_format_rows" else read_events(path)
        assert threading.active_count() == before


class TestExport:
    def test_slots_do_not_overlap_windows(self):
        p = SimParams(w_bins=1, t0_ratio=50.0, d=3.0, n_trials=500, seed=9)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(0.8), p)
        s1, s2 = export_station_streams(blk)
        stride = 2 * (p.max_tag + 1)
        # events of trial n stay inside [n*stride, n*stride + max_tag]
        base = np.arange(500, dtype=np.int64) * stride
        assert np.all(s1.k - base >= 0) and np.all(s1.k - base <= p.max_tag)
        assert np.all(s2.k - base >= 0) and np.all(s2.k - base <= p.max_tag)
        # cross-trial separation exceeds any admissible window
        assert np.min(np.diff(s1.k)) >= stride - p.max_tag > p.max_tag + 1

    def test_span_below_int64_at_largest_t0_ratio(self):
        # 2 * n * (max_tag + 1) < 2**63 holds up to n = 511 at t0_ratio = 2**53;
        # the window max_tag + 1 admits every trial, so each must pair with itself
        p = SimParams(w_bins=2**53 + 1, t0_ratio=2.0**53, d=3.0, n_trials=511, seed=9)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(0.8), p)
        s1, s2 = export_station_streams(blk)
        pairs = reference.match_pairs(s1.k.tolist(), s2.k.tolist(), p.w_bins)
        assert pairs == [(i, i) for i in range(511)]
        assert match_streams(s1, s2, p.w_bins)[(0, 0)] == tally(blk, p.w_bins)
        blk = run_pairs(Setting.from_polar(0), Setting.from_polar(0.8),
                        replace(p, n_trials=512))
        with pytest.raises(ValueError, match=r"n_trials=512 at t0_ratio=9007199254740992\.0"):
            export_station_streams(blk)


class TestResultsCsv:
    def test_reals_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        values = [math.pi, 1e-17, -2.5000000000000004, 0.1, 2 / 3]
        write_results_csv(path, ["v"], [[v] for v in values])
        lines = path.read_text().splitlines()
        assert lines[0] == "v"
        for line, v in zip(lines[1:], values):
            assert float(line) == v

    def test_none_is_empty_cell(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results_csv(path, ["a", "b"], [[None, 1.5]])
        assert path.read_text().splitlines()[1] == f",{format_real(1.5)}"

    def test_nan_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_results_csv(tmp_path / "r.csv", ["a"], [[float("nan")]])


class TestManifest:
    def test_round_trip_and_verify(self, tmp_path):
        table = tmp_path / "t.csv"
        write_results_csv(table, ["x"], [[1.0]])
        manifest = RunManifest(
            params={"seed": 7, "d": 3.0}, scenario="demo",
            tool_version="eprbsim test", created_at="2026-01-01T00:00:00+00:00",
            output_digests={"t.csv": file_digest(table)},
        )
        mpath = tmp_path / "manifest.txt"
        write_manifest(manifest, mpath)
        loaded = read_manifest(mpath)
        assert loaded.scenario == "demo"
        assert loaded.output_digests == dict(manifest.output_digests)
        assert verify_manifest(mpath) == []

    def test_verify_flags_tampering(self, tmp_path):
        table = tmp_path / "t.csv"
        write_results_csv(table, ["x"], [[1.0]])
        manifest = RunManifest(params={}, scenario="demo", tool_version="v",
                               created_at="now",
                               output_digests={"t.csv": file_digest(table)})
        mpath = tmp_path / "manifest.txt"
        write_manifest(manifest, mpath)
        table.write_text("x\n2\n")
        assert verify_manifest(mpath) == ["t.csv"]


class TestConfig:
    def test_parse_basic(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nseed = 42\nw_bins=3   # trailing\n\nd = 2.5\n")
        assert parse_config(path) == {"seed": "42", "w_bins": "3", "d": "2.5"}

    def test_bad_line_rejected(self):
        with pytest.raises(UsageError, match="line 2"):
            parse_keyvalue("a = 1\nnot a pair\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError):
            parse_config(tmp_path / "absent.cfg")
