"""File formats: TTAG-CSV event streams, results tables, manifests, config.

TTAG-CSV v1 holds one station's events, one file per station::

    # ttag-csv 1
    <k>,<setting_index>,<x>

with ``k`` a non-decreasing unsigned tag bin, ``setting_index`` a small
non-negative integer into the station's settings table, and ``x`` in
{-1, +1}.  ASCII, LF line endings.  Reads reject version mismatches,
malformed lines (named by line number) and non-monotone tags.  A write
formats its rows, and a read of a canonical body parses it, in chunks shared
among the engine's worker threads (``pipeline._each_chunk``), one for each
CPU the process may run on; the bytes written, the streams read and every
error are the same at any number of workers.

Results tables are plain CSV with one header row and reals printed with 17
significant digits, enough to round-trip doubles.  Manifests are flat
``key = value`` text with content digests of every emitted table.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import pipeline
from .errors import TtagFormatError, UsageError
from .model import SimParams, TrialBlock

TTAG_VERSION = 1
_HEADER_PREFIX = "# ttag-csv "


class EventStream:
    """Column view of one station's time-tag records, sorted by tag."""

    def __init__(self, k, setting_index, x):
        self.k = np.asarray(k, dtype=np.int64)
        self.setting_index = np.asarray(setting_index, dtype=np.int64)
        self.x = np.asarray(x, dtype=np.int64)
        if not (len(self.k) == len(self.setting_index) == len(self.x)):
            raise ValueError("column lengths differ")
        # 1-byte masks, not int64 temporaries
        if (self.k < 0).any():
            raise ValueError("tags must be non-negative")
        if (self.setting_index < 0).any():
            raise ValueError("setting indices must be non-negative")
        if ((self.x != 1) & (self.x != -1)).any():
            raise ValueError("outcomes must be -1 or +1")
        if (self.k[1:] < self.k[:-1]).any():
            raise ValueError("tags must be non-decreasing")

    def __len__(self):
        return len(self.k)

    def __eq__(self, other):
        return (isinstance(other, EventStream)
                and np.array_equal(self.k, other.k)
                and np.array_equal(self.setting_index, other.setting_index)
                and np.array_equal(self.x, other.x))


_WRITE_ROWS = 1 << 15  # rows a worker formats at a time
_READ_BYTES = 1 << 16  # body bytes parsed at a time, ending at a newline
_COMMA, _LF, _MINUS, _ZERO = b",\n-0"


def write_events(stream: EventStream, path) -> None:
    """Serialize a station stream as TTAG-CSV v1 (lossless).

    The bytes are those of ``"%d,%d,%d\\n"`` on every row, formatted in numpy
    ``_WRITE_ROWS`` rows at a time by ``_format_rows``.  The chunks are
    formatted in rounds of one a worker, on ``pipeline._each_chunk``, and
    each round is written in file order before the next is formatted, so a
    write holds at most one formatted chunk a worker.
    """
    cols, n = (stream.k, stream.setting_index, stream.x), len(stream)
    texts = {}

    def format_chunks(starts, _):
        for lo in starts:
            texts[lo] = _format_rows([c[lo:lo + _WRITE_ROWS] for c in cols])

    with open(path, "wb") as f:
        f.write(f"{_HEADER_PREFIX}{TTAG_VERSION}\n".encode("ascii"))
        per_round = _WRITE_ROWS * pipeline._cpus()
        for first in range(0, n, per_round):
            starts = range(first, min(first + per_round, n), _WRITE_ROWS)
            pipeline._each_chunk(starts, format_chunks)
            for lo in starts:
                f.write(texts.pop(lo))


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Four ASCII digits of 0..9999, one native uint32 each, and which of a
    group's four bytes a number keeps: those of its significant digits, or
    all four when more digits lie above the group (index 10^4).

    Built on first use, so that importing the module allocates nothing.
    """
    places = np.array([1000, 100, 10, 1])
    quads = (np.arange(10**4)[:, None] // places % 10 + ord("0")).astype(np.uint8)
    keep = np.arange(4) >= 4 - (np.arange(10**4 + 1)[:, None] >= places).sum(1, keepdims=True)
    return quads.view(np.uint32)[:, 0], keep.view(np.uint32)[:, 0]


def _format_rows(cols) -> np.ndarray:
    """The TTAG-CSV lines of equal-length int64 columns, as ASCII bytes.

    Each field has a sign byte, as many digit bytes as the column's largest
    magnitude has, and a separator, in one ``(rows, width)`` table; ``keep``
    marks the bytes of the text, and one compress drops the rest.  Digits go
    in four at a time as uint32 stores, fields right to left, so a leading
    group's spare zeros spill into bytes that are written afterwards.
    """
    fields, width = [], 2  # the first field's spill
    for v in cols:
        mag = v.astype(np.uint64)
        neg = v < 0
        np.negative(mag, out=mag, where=neg)  # |v|, -2^63 included
        digits = len(str(int(mag.max())))
        fields.append((width, neg, mag, digits))
        width += digits + 2
    quads, keeps = _digit_tables()
    text = np.empty((len(cols[0]), width), np.uint8)
    keep = np.zeros(text.shape, bool)
    for at, neg, mag, digits in reversed(fields):
        end = at + 1 + digits
        for i in range(0, digits, 4):  # i digits lie right of this group
            group = np.s_[:, end - i - 4:end - i]
            high = mag // 10**4
            text[group].view(np.uint32)[:, 0] = quads.take(mag - high * 10**4)
            # the units group of zero keeps its "0"
            keep[group].view(np.uint32)[:, 0] = keeps.take(np.clip(mag, i == 0, 10**4))
            mag = high
        text[:, at], keep[:, at] = _MINUS, neg
        text[:, end], keep[:, end] = _COMMA, True
    text[:, -1] = _LF
    return np.compress(keep.ravel(), text.ravel())


def read_events(path) -> EventStream:
    """Parse a TTAG-CSV v1 file, rejecting version or format violations.

    A canonical body, as ``write_events`` writes it, is parsed by
    ``np.fromstring`` (see ``_canonical_rows``); any other goes through a
    byte pre-scan and ``np.loadtxt``, which accept the lenient forms ``+1``
    and spaces around a field.  An error names the first bad line.
    """
    rows, error = _read_rows(path)  # the file's bytes are freed by now
    k, s, x = rows.T
    out_of_range = (k < 0) | (s < 0) | ((x != 1) & (x != -1))
    bad = out_of_range.copy()
    bad[1:] |= k[1:] < k[:-1]
    if bad.any():
        i = int(bad.argmax())
        raise TtagFormatError(f"{path}:{i + 2}: " + (
            "field out of range" if out_of_range[i] else "tags must be non-decreasing"))
    if error:
        raise TtagFormatError(error)
    return EventStream(k, s, x)


def _read_rows(path) -> tuple[np.ndarray, str | None]:
    """The ``(n, 3)`` rows of a TTAG-CSV v1 file before its first bad line.

    A bad header raises; a bad line comes back as an error naming it.  The
    lenient route parses the rows before the first blank line, carriage
    return or non-ASCII byte, which ``np.loadtxt`` would misread.
    """
    data, nl = Path(path).read_bytes(), b"\n"
    body = data.find(nl) + 1 or len(data)
    header = data[:body].decode("ascii", "replace")
    if not header.startswith(_HEADER_PREFIX):
        raise TtagFormatError(f"{path}: missing '{_HEADER_PREFIX}<version>' header")
    try:
        version = int(header[len(_HEADER_PREFIX):].strip())
    except ValueError:
        raise TtagFormatError(f"{path}: unreadable version in header") from None
    if version != TTAG_VERSION:
        raise TtagFormatError(
            f"{path}: unsupported ttag-csv version {version} (expected {TTAG_VERSION})")
    rows = _canonical_rows(data, body)
    if rows is not None:
        return rows, None
    shape = "expected 'k,setting_index,x'"
    end = data.find(nl, body)
    if data.count(b",", body, end if end >= 0 else len(data)) != 2:
        raise TtagFormatError(f"{path}:2: {shape}")
    found = [(data.find(b"\r", body), "carriage return"),
             (data.find(b"\n\n") + 1 or -1, shape)]
    if not data.isascii():
        found.append((re.search(rb"[^\0-\x7f]", data).start(), "non-ASCII byte"))
    stop, what = min((f for f in found if f[0] >= 0), default=(0, None))
    n_rows = data.count(nl, 0, stop) - 1 if what else None  # the rows before it
    error = what and f"{path}:{n_rows + 2}: {what}"
    del data

    def parse(n_rows):  # numpy warns on 0 rows and unzips a *.gz path
        if n_rows == 0:
            return np.empty((0, 3), np.int64)
        with open(path, encoding="latin-1") as f:
            return np.loadtxt(f, np.int64, delimiter=",", comments=None, skiprows=1,
                              max_rows=n_rows, ndmin=2)
    try:
        return parse(n_rows), error
    except ValueError as ex:  # numpy counts from 0 in a conversion error, else from 1
        convert = "could not convert" in str(ex)
        n_rows = int(re.search(r"at row (\d+)", str(ex))[1]) - (not convert)
        error = f"{path}:{n_rows + 2}: " + ("non-integer field" if convert else shape)
        return parse(n_rows), error  # the rows before it


def _canonical_rows(data: bytes, body: int) -> np.ndarray | None:
    """Parse the body that starts at byte ``body`` with ``np.fromstring``.

    Only a canonical body is parsed; for any other this returns None.  In a
    canonical body every line is three fields, each ``-?[0-9]+`` and at most
    18 bytes long, split by two commas and ended by LF.  The length bound
    matters: ``np.fromstring`` saturates an int64 overflow without an error.
    The body is cut into pieces of at most ``_READ_BYTES`` that end at a
    newline, and each piece's lines are counted, in this thread.  Then the
    pieces are parsed on ``pipeline._each_chunk``'s workers, each into its
    own rows of one preallocated array; the body is never copied whole.  An
    empty body gives no rows.
    """
    text = np.frombuffer(data, np.uint8, offset=body)
    edges = [0]
    while edges[-1] < len(text):
        at = edges[-1]
        end = data.rfind(b"\n", body + at, body + at + _READ_BYTES) + 1 - body
        if end <= at:
            return None
        edges.append(end)
    firsts = np.cumsum([0] + [np.count_nonzero(text[at:end] == _LF)
                              for at, end in zip(edges, edges[1:])]).tolist()
    rows = np.empty((firsts[-1], 3), np.int64)
    values, bad = rows.reshape(-1), []

    def parse_pieces(pieces, _):
        for i in pieces:
            if not (bad or _parse_piece(text[edges[i]:edges[i + 1]],
                                        values[3 * firsts[i]:3 * firsts[i + 1]])):
                bad.append(i)

    pipeline._each_chunk(range(len(edges) - 1), parse_pieces)
    return None if bad else rows


def _parse_piece(piece: np.ndarray, out: np.ndarray) -> bool:
    """Parse the canonical lines of ``piece``, which ends at a newline, into
    ``out``, one value a field; False, with ``out`` unspecified, if a line is
    not canonical.  ``out`` holds three values for each LF of the piece.
    """
    is_sep = (piece == _COMMA) | (piece == _LF)
    seps = np.flatnonzero(is_sep)
    width = np.diff(seps, prepend=-1)  # a field's bytes plus one
    minus = piece == _MINUS
    not_digit = piece - _ZERO >= 10
    if (piece[seps].tobytes() != b",,\n" * (len(seps) // 3)  # three fields a line
            or width.min() < 2 or width.max() > 19  # of 1 to 18 bytes
            or np.count_nonzero(not_digit) != np.count_nonzero(minus) + len(seps)
            or (minus[:-1] & not_digit[1:]).any()  # a "-" precedes a digit
            or (minus[1:] & ~is_sep[:-1]).any()):  # and opens its field
        return False
    piece = piece.copy()
    piece[seps[2::3]] = _COMMA
    try:
        out[:] = np.fromstring(piece, np.int64, sep=",")
    except ValueError:
        return False
    return True


def export_station_streams(block: TrialBlock, setting_index_1: int = 0,
                           setting_index_2: int = 0) -> tuple[EventStream, EventStream]:
    """Lay a trial block out as two absolute-time station streams.

    Trial ``n`` occupies its own time slot of ``2 * (max_tag + 1)`` bins, so
    events from different trials can never fall inside one coincidence
    window the model admits and greedy stream matching recovers exactly the
    per-trial pairing.  Raises ValueError if the layout's span overflows int64.
    """
    params: SimParams = block.params
    n, slot = len(block), 2 * (params.max_tag + 1)
    if n * slot >= 2**63:
        raise ValueError(f"n_trials={n} at t0_ratio={params.t0_ratio!r} overflow int64 tags")
    base = np.arange(n, dtype=np.int64) * slot
    s1 = np.full(n, setting_index_1, dtype=np.int64)
    s2 = np.full(n, setting_index_2, dtype=np.int64)
    return (
        EventStream(base + block.k1, s1, block.x1.astype(np.int64)),
        EventStream(base + block.k2, s2, block.x2.astype(np.int64)),
    )


def format_real(v: float) -> str:
    return f"{v:.17g}"


def results_csv(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A results table as text: one header row, 17-significant-digit reals.

    ``None`` cells (undefined estimates) are left empty; an infinite real
    reads ``inf``.
    """
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for v in row:
            if v is None:
                cells.append("")
            elif isinstance(v, str):
                if "," in v or "\n" in v:
                    raise ValueError(f"cell text may not contain separators: {v!r}")
                cells.append(v)
            elif isinstance(v, (bool, np.bool_)):
                cells.append(str(int(v)))
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            elif isinstance(v, float) and math.isnan(v):
                raise ValueError("refusing to serialize NaN; use None for undefined")
            else:
                cells.append(format_real(float(v)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_results_csv(path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write :func:`results_csv` of the table to ``path``."""
    Path(path).write_text(results_csv(columns, rows), encoding="ascii", newline="\n")


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance for one scenario run: inputs, tool version, output digests."""

    params: Mapping[str, object]
    scenario: str
    tool_version: str
    created_at: str
    output_digests: Mapping[str, str]


def write_manifest(manifest: RunManifest, path) -> None:
    lines = [
        f"scenario = {manifest.scenario}",
        f"tool_version = {manifest.tool_version}",
        f"created_at = {manifest.created_at}",
    ]
    for key in sorted(manifest.params):
        lines.append(f"params.{key} = {manifest.params[key]}")
    for name in sorted(manifest.output_digests):
        lines.append(f"digest.{name} = {manifest.output_digests[name]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def read_manifest(path) -> RunManifest:
    params: dict[str, str] = {}
    digests: dict[str, str] = {}
    fields = {"scenario": "", "tool_version": "", "created_at": ""}
    for key, value in parse_keyvalue(Path(path).read_text(encoding="ascii")).items():
        if key.startswith("params."):
            params[key[len("params."):]] = value
        elif key.startswith("digest."):
            digests[key[len("digest."):]] = value
        elif key in fields:
            fields[key] = value
        else:
            raise TtagFormatError(f"{path}: unknown manifest key {key!r}")
    return RunManifest(params=params, scenario=fields["scenario"],
                       tool_version=fields["tool_version"],
                       created_at=fields["created_at"], output_digests=digests)


def verify_manifest(manifest_path) -> list[str]:
    """Names of manifest outputs whose current digests disagree."""
    manifest = read_manifest(manifest_path)
    out_dir = Path(manifest_path).parent
    bad = []
    for name, digest in manifest.output_digests.items():
        target = out_dir / name
        if not target.exists() or file_digest(target) != digest:
            bad.append(name)
    return bad


def now_utc() -> str:
    return datetime.now(timezone.utc).isoformat()


def parse_keyvalue(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise UsageError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def parse_config(path) -> dict[str, str]:
    """Read a flat ``key = value`` configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as ex:
        raise UsageError(f"cannot read config {path}: {ex}") from None
    try:
        return parse_keyvalue(text)
    except UsageError as ex:
        raise UsageError(f"{path}: {ex}") from None
