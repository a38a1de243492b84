"""Shared simulate-and-estimate plumbing for sweeps, optimizers and scenarios.

A :class:`ThetaEngine` fixes one ensemble of hidden draws (one seed) and
evaluates many relative angles against it.  Station 1 is pinned to z-hat and
station 2 to z-hat rotated by ``theta`` in the xz-plane; the engine's output
at any ``theta`` is bit-identical to ``run_pairs`` with the same parameters,
it merely avoids regenerating the draws and the station-1 events per point.

An engine reads the ``params.n_trials`` trials starting at ``first_trial`` of
the seed's counter stream, so engines at offsets a multiple of ``n_trials``
apart see disjoint, independent ensembles of the same size.  It keeps 33
bytes a trial, and builds, tallies and regenerates ``_CHUNK`` trials at a
time.
"""

from __future__ import annotations

import numpy as np

from .coincidence import (
    CorrelationEstimate,
    JACKKNIFE_BLOCKS,
    CoincidenceCounts,
    add_cells,
    block_edges,
    estimate,
)
from .model import Setting, SimParams, _hidden_arrays, _station_kernel, check_window

_CACHE_LIMIT = 8 * 10**6  # largest ensemble kept between calls, in trials
_CHUNK = 1 << 15  # trials per pass of a build, a tally or a regeneration; fits in L2
_MEMO_TOP = 4096  # widest window a merged table resolves unless a wider one is asked


def _columns(n: int):
    """Empty ``-sx``, ``-sz``, ``lambda2``, ``x1`` and ``k1`` columns of ``n`` trials."""
    return (np.empty(n), np.empty(n), np.empty(n),
            np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int64))


class ThetaEngine:
    """Evaluates correlation estimates over relative angles at a shared seed.

    An ensemble of at most ``_CACHE_LIMIT`` trials is built once and keeps
    what every tally reads: station 2's ``-sx``, ``-sz`` and ``lambda2`` (24
    bytes a trial), and station 1's ``k1`` (8) and ``x1`` (1), 33 bytes a
    trial.  Every setting lies in the xz-plane, so the engine needs no
    ``sy``: station 1 projects ``s`` as ``sz`` and station 2 as
    ``sx * ax + sz * az``.  A larger ensemble is regenerated on every call.
    Building, tallying and regenerating all go ``_CHUNK`` trials at a time,
    so no temporary spans the ensemble.

    One tally of an angle counts every window at once: ``add_cells`` with
    ``|k1 - k2|`` as the group, one ``bincount`` per jackknife block, summed
    cumulatively over ``|k1 - k2|``.  The merged (one-block) table of each
    angle tallied without blocks is kept, ``4 * (max_tag + 1)`` int32 counts
    (int64 from ``2**31`` trials), 16 kB at ``t0_ratio = 1000``, so a
    repeated angle costs no kernel call at any window; ``gamma_at`` reads
    it.  Beyond a ``max_tag`` of ``_MEMO_TOP`` a kept table stops at the
    widest window asked so far, or at ``_MEMO_TOP`` if that is wider.
    """

    def __init__(self, params: SimParams, first_trial: int = 0):
        if first_trial < 0:
            raise ValueError("first_trial must be >= 0")
        self.params = params
        self.first_trial = first_trial
        self._kept = None
        n = params.n_trials
        if n <= _CACHE_LIMIT:
            kept = _columns(n)
            for lo in range(0, n, _CHUNK):
                self._build(lo, *(col[lo:lo + _CHUNK] for col in kept))
            self._kept = kept
        self._merged: dict[float, np.ndarray] = {}

    def _build(self, lo: int, sx, sz, lam2, x1, k1) -> None:
        """Write the chunk of trials from ``lo`` into the given ``_columns`` views."""
        p, first = self.params, self.first_trial + lo
        hx, _, hz, lam1, hlam2 = _hidden_arrays(p.seed, first, first + len(sx), y=False)
        np.negative(hx, out=sx)  # station 2 receives -s
        np.negative(hz, out=sz)
        lam2[:] = hlam2
        x1[:], k1[:] = _station_kernel(hz, lam1, p.t0_ratio, p.d)  # z-hat . s is sz

    def _cumulative(self, theta: float, edges: np.ndarray, top: int) -> np.ndarray:
        """``(n_blocks, top + 1, 4)``: row ``j`` counts the trials with ``|k1 - k2| <= j``.

        Differences above ``top`` are counted in the last row, so row
        ``min(w, top + 1) - 1`` holds window ``w`` for every ``w <= top`` and,
        when ``top`` is ``max_tag``, for every ``w``.  Chunks are read from
        the kept columns, or rebuilt into one chunk-sized set.
        """
        p, n = self.params, self.params.n_trials
        ax, _, az = Setting.from_polar(theta).vec  # its y component is 0
        hist = np.zeros((len(edges) - 1, 4 * (top + 1)), dtype=np.int64)
        c, term = np.empty((2, min(n, _CHUNK)))
        scratch = _columns(len(c)) if self._kept is None else None
        for lo in range(0, n, _CHUNK):
            if scratch is None:
                sx, sz, lam2, x1, k1 = (col[lo:lo + _CHUNK] for col in self._kept)
            else:
                sx, sz, lam2, x1, k1 = cols = [col[:n - lo] for col in scratch]
                self._build(lo, *cols)
            m = len(sx)
            proj = np.multiply(sx, ax, out=c[:m])
            proj += np.multiply(sz, az, out=term[:m])
            x2, dk = _station_kernel(proj, lam2, p.t0_ratio, p.d)
            np.subtract(k1, dk, out=dk)
            np.abs(dk, out=dk)
            if top < p.max_tag:
                np.minimum(dk, top, out=dk)
            add_cells(hist, dk, x1, x2, np.clip(edges, lo, lo + m) - lo)
        return np.cumsum(hist.reshape(len(hist), top + 1, 4), axis=1)

    def block_counts_at(self, theta: float, w_bins=None,
                        n_blocks: int = JACKKNIFE_BLOCKS):
        """Per-block cell counts at one angle, for one or many windows.

        ``w_bins`` may be an int, a sequence of ints, or None (the params
        window).  Returns the ``(n_blocks, 4)`` count array for a single
        window, or a dict of them keyed by window, in first-seen order, for a
        sequence.  Every window comes from one tally of the angle; with one
        block that tally is the engine's memo of the angle.
        """
        windows = self.params.w_bins if w_bins is None else w_bins
        single = np.isscalar(windows)
        window_list = list(dict.fromkeys(map(check_window, [windows] if single else windows)))

        edges = block_edges(self.params.n_trials, n_blocks)
        top = min(self.params.max_tag, max(window_list))
        if len(edges) == 2:
            table = self._merged_table(float(theta), top)[None]
        else:
            table = self._cumulative(theta, edges, top)
        rows = table.shape[1]
        cells = {w: table[:, min(w, rows) - 1].astype(np.int64) for w in window_list}
        return cells[window_list[0]] if single else cells

    def _merged_table(self, theta: float, top: int) -> np.ndarray:
        """The angle's kept ``(rows, 4)`` one-block table, resolving windows up to ``top``.

        A table is built to ``max_tag``, so it serves every window, unless
        ``max_tag`` exceeds both ``_MEMO_TOP`` and ``top``; then it is rebuilt
        when a wider window is asked.
        """
        table = self._merged.get(theta)
        if table is None or len(table) <= top:
            p = self.params
            top = min(p.max_tag, max(top, _MEMO_TOP))
            table = self._cumulative(theta, block_edges(p.n_trials, 1), top)[0]
            table = self._merged[theta] = table.astype(
                np.int32 if p.n_trials < 2**31 else np.int64)
        return table

    def estimate_at(self, theta: float, w_bins: int | None = None,
                    n_blocks: int = JACKKNIFE_BLOCKS) -> CorrelationEstimate:
        """Jackknifed correlation estimate at one angle."""
        blocks = self.block_counts_at(theta, w_bins, n_blocks)
        return estimate(CoincidenceCounts.from_cells(blocks, self.params.n_trials), blocks)

    def gamma_at(self, theta: float, w_bins: int | None = None) -> float:
        """Coincidence frequency at one angle, read off its merged one-block table."""
        return int(self.block_counts_at(theta, w_bins, n_blocks=1).sum()) / self.params.n_trials
