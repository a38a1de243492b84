"""File formats: TTAG-CSV event streams, results tables, manifests, config.

TTAG-CSV v1 holds one station's events, one file per station::

    # ttag-csv 1
    <k>,<setting_index>,<x>

with ``k`` a non-decreasing unsigned tag bin, ``setting_index`` a small
non-negative integer into the station's settings table, and ``x`` in
{-1, +1}.  ASCII, LF line endings.  Reads reject version mismatches,
malformed lines (named by line number) and non-monotone tags.

Results tables are plain CSV with one header row and reals printed with 17
significant digits, enough to round-trip doubles.  Manifests are flat
``key = value`` text with content digests of every emitted table.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

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
        if len(self.k) and int(self.k.min()) < 0:
            raise ValueError("tags must be non-negative")
        if len(self.setting_index) and int(self.setting_index.min()) < 0:
            raise ValueError("setting indices must be non-negative")
        if len(self.x) and not np.all(np.abs(self.x) == 1):
            raise ValueError("outcomes must be -1 or +1")
        dk = np.diff(self.k)
        if len(dk) and int(dk.min()) < 0:
            raise ValueError("tags must be non-decreasing")

    def __len__(self):
        return len(self.k)

    def __eq__(self, other):
        return (isinstance(other, EventStream)
                and np.array_equal(self.k, other.k)
                and np.array_equal(self.setting_index, other.setting_index)
                and np.array_equal(self.x, other.x))


def write_events(stream: EventStream, path) -> None:
    """Serialize a station stream as TTAG-CSV v1 (lossless)."""
    rows = np.stack([stream.k, stream.setting_index, stream.x], axis=1)
    text = (f"{_HEADER_PREFIX}{TTAG_VERSION}\n" + "%s,%s,%s\n" * len(stream)) % tuple(
        rows.ravel().tolist())
    Path(path).write_text(text, encoding="ascii", newline="\n")


def read_events(path) -> EventStream:
    """Parse a TTAG-CSV v1 file, rejecting version or format violations.

    One ``np.loadtxt`` parses the rows before the first blank line, carriage
    return or non-ASCII byte, which it would misread.  An error names the
    first bad line.
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
    if body == len(data):
        return EventStream([], [], [])
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
        rows = parse(n_rows)
    except ValueError as ex:  # numpy counts from 0 in a conversion error, else from 1
        convert = "could not convert" in str(ex)
        n_rows = int(re.search(r"at row (\d+)", str(ex))[1]) - (not convert)
        error = f"{path}:{n_rows + 2}: " + ("non-integer field" if convert else shape)
        rows = parse(n_rows)  # the rows before it
    k, s, x = rows.T
    out_of_range = (k < 0) | (s < 0) | (np.abs(x) != 1)
    bad = out_of_range | (np.diff(k, prepend=k[:1]) < 0)
    if bad.any():
        i = int(bad.argmax())
        raise TtagFormatError(f"{path}:{i + 2}: " + (
            "field out of range" if out_of_range[i] else "tags must be non-decreasing"))
    if error:
        raise TtagFormatError(error)
    return EventStream(k, s, x)


def export_station_streams(block: TrialBlock, setting_index_1: int = 0,
                           setting_index_2: int = 0) -> tuple[EventStream, EventStream]:
    """Lay a trial block out as two absolute-time station streams.

    Trial ``n`` occupies its own time slot of ``2 * (max_tag + 1)`` bins, so
    events from different trials can never fall inside one coincidence
    window the model admits and greedy stream matching recovers exactly the
    per-trial pairing.
    """
    params: SimParams = block.params
    base = np.arange(len(block), dtype=np.int64) * (2 * (params.max_tag + 1))
    s1 = np.full(len(block), setting_index_1, dtype=np.int64)
    s2 = np.full(len(block), setting_index_2, dtype=np.int64)
    return (
        EventStream(base + block.k1, s1, block.x1.astype(np.int64)),
        EventStream(base + block.k2, s2, block.x2.astype(np.int64)),
    )


def format_real(v: float) -> str:
    return f"{v:.17g}"


def write_results_csv(path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a results table: one header row, 17-significant-digit reals.

    ``None`` cells (undefined estimates) are left empty.
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


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
