"""Coincidence selection, outcome tallies and correlation estimators.

Two events are coincident when their time-tag bins differ by less than the
window, ``|k1 - k2| < w_bins``, so ``w_bins = 1`` selects same-bin pairs
only.  Correlations are ratio estimators over the coincident subset; the
coincidence frequency ``gamma`` is normalized by all trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TrialBlock, check_window

#: Default number of blocks for the delete-one jackknife.
JACKKNIFE_BLOCKS = 100


@dataclass(frozen=True)
class CoincidenceCounts:
    """Outcome-pair tallies over the coincident subset of a trial sequence.

    ``n_pp`` counts coincident trials with ``(x1, x2) = (+1, +1)`` and so on;
    ``n_total`` counts all trials, coincident or not.
    """

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int
    n_total: int

    def __post_init__(self):
        if min(self.n_pp, self.n_pm, self.n_mp, self.n_mm) < 0:
            raise ValueError("counts must be non-negative")
        if self.n_coinc > self.n_total:
            raise ValueError("coincident counts exceed n_total")

    @classmethod
    def from_cells(cls, cells, n_total: int) -> "CoincidenceCounts":
        """The merged tally of a ``(4,)`` or ``(n_blocks, 4)`` cell-count array."""
        n_pp, n_pm, n_mp, n_mm = np.reshape(cells, (-1, 4)).sum(axis=0).tolist()
        return cls(n_pp, n_pm, n_mp, n_mm, n_total=int(n_total))

    @property
    def n_coinc(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm


@dataclass(frozen=True)
class CorrelationEstimate:
    """Point estimates from one tally.

    ``e`` is the two-particle correlation and ``e1``/``e2`` the single
    station averages, all over the coincident subset; they are ``None`` when
    no trial is coincident.  ``gamma = n_coinc / n_total`` is always defined.
    ``stderr_e`` is the delete-one block jackknife error when block tallies
    were available, otherwise the i.i.d. ratio approximation.
    """

    e: float | None
    e1: float | None
    e2: float | None
    gamma: float
    stderr_e: float | None
    n_coinc: int


def block_edges(n: int, n_blocks: int) -> np.ndarray:
    """Edges of the ``min(n_blocks, n)`` contiguous jackknife blocks of ``n`` trials."""
    if not isinstance(n_blocks, (int, np.integer)) or n_blocks < 1:
        raise ValueError("n_blocks must be an integer >= 1")
    return np.linspace(0, n, min(n_blocks, n) + 1).astype(np.int64)


def block_spans(edges, lo: int = 0, hi: int | None = None) -> list[tuple[int, int, int]]:
    """``(b, start, stop)`` of each block that meets trials ``lo..hi-1``.

    Block ``b`` holds trials ``edges[b]`` to ``edges[b + 1]``; ``start`` and
    ``stop`` bound its part of the range, counted from ``lo``, and blocks
    the range misses are left out.  ``hi`` defaults to the last edge.
    """
    cut = (np.clip(edges, lo, edges[-1] if hi is None else hi) - lo).tolist()
    return [(b, cut[b], cut[b + 1]) for b in range(len(cut) - 1) if cut[b] < cut[b + 1]]


def cell_offsets(neg1, spans, width: int, out=None) -> np.ndarray:
    """Each trial's station-1 part of its cell code, for :func:`add_cells`.

    ``neg1`` is the bool ``[x1 < 0]``.  A trial in the ``s``-th of ``spans``
    (see :func:`block_spans`) gets ``width * s + 2 * [x1 < 0]``, ``width``
    the cells of a block, as int64 in ``out`` or a new array.  Made once, it
    serves every group counted on the same trials.
    """
    out = np.multiply(neg1, np.int64(2), out=out, dtype=np.int64)
    for s, (_, start, stop) in enumerate(spans[1:], 1):
        out[start:stop] += s * width
    return out


def add_cells(out: np.ndarray, group: np.ndarray, offsets, neg2) -> None:
    """Add the cell counts of each span of trials into ``out``, in one ``bincount``.

    A trial's cell code is ``4 * group + 2 * [x1 < 0] + [x2 < 0]``.  ``group``
    is an int64 array of ``m`` trials, or a ``(g, m)`` one whose rows are
    ``g`` groupings of the same trials, and the codes are formed in place in
    it, so the caller no longer needs it.  ``offsets`` is the trials'
    :func:`cell_offsets`, and ``neg2`` the bool ``[x2 < 0]`` of ``group``'s
    shape.  ``out`` is ``(n_spans, 4 * n_groups)``, one row for each span of
    ``offsets``, or ``(g, n_spans, 4 * n_groups)`` for a ``(g, m)`` group:
    each span's row gains the counts of its trials' codes.
    """
    group *= 4
    group += offsets
    group += neg2
    if group.ndim == 2:  # row r of group counts into out[r]
        group += (np.arange(len(group)) * out[0].size)[:, None]
    out += np.bincount(group.ravel(), minlength=out.size).reshape(out.shape)


def tally(trials: TrialBlock, w_bins: int) -> CoincidenceCounts:
    """Tally outcome pairs over the coincident subset of a trial block."""
    if len(trials) == 0:
        raise ValueError("empty trial block")
    return CoincidenceCounts.from_cells(tally_blocks(trials, w_bins, n_blocks=1), len(trials))


def tally_blocks(trials: TrialBlock, w_bins: int,
                 n_blocks: int = JACKKNIFE_BLOCKS) -> np.ndarray:
    """``(n_blocks, 4)`` cell counts over ``n_blocks`` contiguous index slices."""
    w = check_window(w_bins)
    edges = block_edges(len(trials), n_blocks)
    cells = np.zeros((len(edges) - 1, 8), dtype=np.int64)  # group 1: not coincident
    add_cells(cells, (np.abs(trials.k1 - trials.k2) >= w).astype(np.int64),
              cell_offsets(trials.x1 < 0, block_spans(edges), 8), trials.x2 < 0)
    return cells[:, :4].copy()


def jackknife_stderr_e(cells: np.ndarray) -> float | None:
    """Delete-one-block jackknife error of ``e`` from ``(n_blocks, 4)`` cell counts.

    ``None`` for fewer than two blocks, or when one block holds every coincidence.
    """
    rest = cells.sum(axis=0) - cells  # the tally with each block left out
    n_rest = rest.sum(axis=1)
    if len(cells) < 2 or not n_rest.all():
        return None
    loo = (rest[:, 0] + rest[:, 3] - rest[:, 1] - rest[:, 2]) / n_rest
    nb = len(loo)
    return float(np.sqrt((nb - 1) / nb * np.sum((loo - loo.mean()) ** 2)))


def estimate(counts: CoincidenceCounts, blocks: np.ndarray | None = None) -> CorrelationEstimate:
    """Correlation and coincidence-frequency estimates from a tally.

    With ``blocks`` (an integer ``(n_blocks, 4)`` array of per-block cell
    counts summing to ``counts``) the error on ``e`` comes from the
    delete-one jackknife; without them it falls back to
    ``sqrt((1 - e^2) / n_coinc)``.
    """
    if counts.n_total <= 0:
        raise ValueError("n_total must be positive")
    pp, pm, mp, mm = counts.n_pp, counts.n_pm, counts.n_mp, counts.n_mm
    if blocks is not None and not (
            isinstance(blocks, np.ndarray) and blocks.dtype.kind == "i"
            and blocks.ndim == 2 and blocks.shape[1] == 4 and (blocks >= 0).all()
            and blocks.sum(axis=0).tolist() == [pp, pm, mp, mm]):
        raise ValueError("blocks must be an integer (n_blocks, 4) array summing to counts")
    nc = counts.n_coinc
    gamma = nc / counts.n_total
    if nc == 0:
        return CorrelationEstimate(None, None, None, gamma, None, 0)
    e = (pp + mm - pm - mp) / nc
    e1 = (pp + pm - mp - mm) / nc
    e2 = (pp + mp - pm - mm) / nc
    if blocks is not None:
        stderr = jackknife_stderr_e(blocks)
    else:
        stderr = float(np.sqrt(max(0.0, 1.0 - e * e) / nc))
    return CorrelationEstimate(e, e1, e2, gamma, stderr, nc)


def estimate_block(trials: TrialBlock, w_bins: int) -> CorrelationEstimate:
    """Tally a block and estimate with jackknife errors in one step."""
    blocks = tally_blocks(trials, w_bins)
    return estimate(CoincidenceCounts.from_cells(blocks, len(trials)), blocks)


def singles_means(trials: TrialBlock) -> tuple[float, float]:
    """Diagnostic single-particle averages over all trials (no selection)."""
    return float(trials.x1.mean(dtype=np.float64)), float(trials.x2.mean(dtype=np.float64))


def match_streams(stream_a, stream_b, w_bins: int) -> dict[tuple[int, int], CoincidenceCounts]:
    """Pair two sorted station streams and tally per setting-pair cell.

    Greedy single pass: walk both streams in time order and pair each event
    with the nearest unmatched event of the other stream whenever the tag
    difference is inside the window; every event is used at most once.  When
    the immediate candidate's successor is strictly closer, the candidate is
    skipped in its favour.  The walk never looks across a gap of ``w_bins``
    or more in the merged tags; cut there, a segment of one event a side is a
    pair, and only segments with more events on both sides are walked.
    Entries are keyed by ``(setting_a, setting_b)``, one for every pair of
    settings present, in sorted order; :func:`add_cells` tallies the pairs
    with the setting pair as their group.  Each cell's ``n_total`` is the
    maximum number of pairs that cell could have produced,
    ``min(count_a, count_b)`` of events carrying those settings.

    ``stream_a`` and ``stream_b`` expose arrays ``k``, ``setting_index`` and
    ``x`` sorted by ``k`` (see :class:`eprbsim.ttag_io.EventStream`).
    """
    w_bins = check_window(w_bins)
    for name, s in (("stream_a", stream_a), ("stream_b", stream_b)):
        down = s.k[1:] < s.k[:-1]  # a 1-byte mask, not an int64 np.diff
        if down.any():
            bad = int(down.argmax()) + 1
            raise ValueError(f"{name} is not sorted by k (first violation at event {bad})")

    merged = np.concatenate([stream_a.k, stream_b.k])
    merged.sort(kind="stable")  # in place, and freed before the per-event arrays
    starts = merged[1:][np.diff(merged) >= w_bins]  # first tags of later segments
    del merged
    seg_a = np.searchsorted(starts, stream_a.k, "right")
    seg_b = np.searchsorted(starts, stream_b.k, "right")
    both = (np.bincount(seg_a, minlength=len(starts) + 1)
            * np.bincount(seg_b, minlength=len(starts) + 1))
    # each event's segment product, gathered once: 1 pairs it, more walks it
    per_a, per_b = both[seg_a], both[seg_b]
    del seg_a, seg_b
    loop_a, one_a = np.flatnonzero(per_a > 1), np.flatnonzero(per_a == 1)
    loop_b, one_b = np.flatnonzero(per_b > 1), np.flatnonzero(per_b == 1)
    del per_a, per_b
    ka = stream_a.k[loop_a].tolist()
    kb = stream_b.k[loop_b].tolist()
    na, nb = len(ka), len(kb)
    pairs_a: list[int] = []
    pairs_b: list[int] = []
    i = j = 0
    while i < na and j < nb:
        delta = kb[j] - ka[i]
        if delta <= -w_bins:
            j += 1
            continue
        if delta >= w_bins:
            i += 1
            continue
        # inside the window: prefer a strictly closer successor of the
        # earlier event's partner before committing
        if ka[i] <= kb[j]:
            if i + 1 < na and abs(ka[i + 1] - kb[j]) < abs(delta):
                i += 1
                continue
        else:
            if j + 1 < nb and abs(kb[j + 1] - ka[i]) < abs(delta):
                j += 1
                continue
        pairs_a.append(i)
        pairs_b.append(j)
        i += 1
        j += 1

    pa = np.concatenate([one_a, loop_a[pairs_a]])
    pb = np.concatenate([one_b, loop_b[pairs_b]])
    counts_a = np.bincount(stream_a.setting_index).tolist()
    counts_b = np.bincount(stream_b.setting_index).tolist()
    n_a, n_b = len(counts_a), len(counts_b)
    cells = np.zeros((1, 4 * n_a * n_b), dtype=np.int64)
    add_cells(cells, stream_a.setting_index[pa] * n_b + stream_b.setting_index[pb],
              cell_offsets(stream_a.x[pa] < 0, [(0, 0, len(pa))], cells.shape[1]),
              stream_b.x[pb] < 0)
    cells = cells.reshape(n_a, n_b, 4)
    return {
        (a, b): CoincidenceCounts.from_cells(cells[a, b], min(count_a, count_b))
        for a, count_a in enumerate(counts_a) if count_a
        for b, count_b in enumerate(counts_b) if count_b
    }
