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
time.  A grid of angles is tallied in one pass over the ensemble: each chunk
is read, or regenerated, once and counted at every angle while it is in
cache.  The count tables of one pass hold at most ``_TABLE_BUDGET`` bytes, so
a grid with wider tables takes one pass per group of angles that fits; one
angle's table beyond ``_TABLE_LIMIT`` bytes is refused before any is made.
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
_TABLE_BUDGET = 2 << 20  # bytes of count tables one pass over the ensemble fills
_TABLE_LIMIT = 1 << 28  # bytes of one angle's count table


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
    ``sx * ax + sz * az``.  A larger ensemble is regenerated on every pass.
    Building, tallying and regenerating all go ``_CHUNK`` trials at a time,
    so no temporary spans the ensemble.

    ``block_counts_over`` tallies a grid of angles in one pass: station 1's
    sign bits ``[x1 < 0]`` are formed once a chunk, and every angle is
    counted on the chunk while it is in cache; ``block_counts_at`` is its
    one-angle case.  One tally of an angle counts every window at once:
    ``add_cells`` with ``|k1 - k2|`` as the group, one ``bincount`` per
    jackknife block, summed cumulatively over ``|k1 - k2|`` in place.  An
    angle's int64 table takes ``32 * (top + 1)`` bytes a block, ``top``
    being the widest window it resolves (915 kB at 100 blocks and
    ``top = 285``), so a pass holds as many angles as fit ``_TABLE_BUDGET``.
    The engine keeps only its ensemble: each call tallies its angles afresh,
    at any number of blocks, through the same passes.
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

    def _build(self, lo: int, sx, sz, lam2, x1, k1) -> None:
        """Write the chunk of trials from ``lo`` into the given ``_columns`` views."""
        p, first = self.params, self.first_trial + lo
        hx, _, hz, lam1, hlam2 = _hidden_arrays(p.seed, first, first + len(sx), y=False)
        np.negative(hx, out=sx)  # station 2 receives -s
        np.negative(hz, out=sz)
        lam2[:] = hlam2
        x1[:], k1[:] = _station_kernel(hz, lam1, p.t0_ratio, p.d)  # z-hat . s is sz

    def _passes(self, thetas, edges: np.ndarray, top: int, keep) -> dict:
        """``{theta: kept}`` for the distinct ``thetas``, one pass per group of angles.

        A group's tables, ``_cumulative(group, edges, top)``, fit
        ``_TABLE_BUDGET``; ``keep`` maps them to one kept array per angle, so
        no group's tables outlive its pass.
        """
        group = max(1, _TABLE_BUDGET // _table_bytes(top, len(edges) - 1))
        kept = {}
        for i in range(0, len(thetas), group):
            batch = thetas[i:i + group]
            kept.update(zip(batch, keep(self._cumulative(batch, edges, top))))
        return kept

    def _cumulative(self, thetas, edges: np.ndarray, top: int) -> np.ndarray:
        """The ``(len(thetas), n_blocks, top + 1, 4)`` tables: row ``j`` counts ``|k1 - k2| <= j``.

        Differences above ``top`` are counted in the last row, so row
        ``min(w, top + 1) - 1`` holds window ``w`` for every ``w <= top`` and,
        when ``top`` is ``max_tag``, for every ``w``.  Each chunk is read from
        the kept columns, or rebuilt into one chunk-sized set, once; station
        1's sign bits are formed once; and every angle is counted on it while
        it is in cache.
        """
        p, n = self.params, self.params.n_trials
        axes = [Setting.from_polar(t).vec[::2].tolist() for t in thetas]  # its y is 0
        hist = np.zeros((len(thetas), len(edges) - 1, 4 * (top + 1)), dtype=np.int64)
        size = min(n, _CHUNK)
        proj, term = np.empty((2, size))
        neg2, k2 = np.empty(size, dtype=bool), np.empty(size, dtype=np.int64)
        scratch = _columns(size) if self._kept is None else None
        for lo in range(0, n, _CHUNK):
            if scratch is None:
                sx, sz, lam2, x1, k1 = (col[lo:lo + _CHUNK] for col in self._kept)
            else:
                sx, sz, lam2, x1, k1 = cols = [col[:n - lo] for col in scratch]
                self._build(lo, *cols)
            m = len(sx)
            neg1 = x1 < 0
            spans = np.clip(edges, lo, lo + m) - lo
            for (ax, az), out in zip(axes, hist):
                c = np.multiply(sx, ax, out=proj[:m])
                c += np.multiply(sz, az, out=term[:m])
                neg, dk = _station_kernel(c, lam2, p.t0_ratio, p.d, out=(neg2[:m], k2[:m]))
                np.subtract(k1, dk, out=dk)
                np.abs(dk, out=dk)
                if top < p.max_tag:
                    np.minimum(dk, top, out=dk)
                add_cells(out, dk, neg1, neg, spans)
        table = hist.reshape(len(thetas), len(edges) - 1, top + 1, 4)
        return np.cumsum(table, axis=2, out=table)

    def block_counts_over(self, thetas, w_bins=None,
                          n_blocks: int = JACKKNIFE_BLOCKS):
        """Per-block cell counts at every angle of ``thetas``, for one or many windows.

        ``w_bins`` may be an int, a sequence of ints, or None (the params
        window).  Returns the ``(len(thetas), n_blocks, 4)`` count array for a
        single window, or a dict of them keyed by window, in first-seen
        order, for a sequence.  Every window of an angle comes from one tally
        of it, and the distinct angles are tallied together, in as few passes
        over the ensemble as ``_TABLE_BUDGET`` allows.
        """
        windows = self.params.w_bins if w_bins is None else w_bins
        single = np.isscalar(windows)
        window_list = list(dict.fromkeys(map(check_window, [windows] if single else windows)))
        thetas = [float(t) for t in thetas]

        p = self.params
        edges = block_edges(p.n_trials, n_blocks)
        top = min(p.max_tag, max(window_list))
        size = _table_bytes(top, len(edges) - 1)
        if size > _TABLE_LIMIT:
            raise ValueError(
                f"one angle's count table needs {size} bytes, over the {_TABLE_LIMIT}-byte "
                f"limit (w_bins={max(window_list)}, t0_ratio={p.t0_ratio!r}, "
                f"n_blocks={n_blocks}); ask for a narrower window or fewer blocks")

        def rows(tables):  # each angle's (windows, n_blocks, 4) rows, copied off the tables
            asked = tables[..., [min(w, tables.shape[-2]) - 1 for w in window_list], :]
            return asked.swapaxes(1, 2)

        picked = self._passes(list(dict.fromkeys(thetas)), edges, top, rows)
        counts = np.empty((len(window_list), len(thetas), len(edges) - 1, 4), dtype=np.int64)
        for i, t in enumerate(thetas):
            counts[:, i] = picked[t]
        return counts[0] if single else dict(zip(window_list, counts))

    def block_counts_at(self, theta: float, w_bins=None,
                        n_blocks: int = JACKKNIFE_BLOCKS):
        """``block_counts_over`` at one angle: its ``(n_blocks, 4)`` array, or a dict of them."""
        counts = self.block_counts_over([theta], w_bins, n_blocks)
        if isinstance(counts, dict):
            return {w: c[0] for w, c in counts.items()}
        return counts[0]

    def _estimate(self, blocks: np.ndarray) -> CorrelationEstimate:
        return estimate(CoincidenceCounts.from_cells(blocks, self.params.n_trials), blocks)

    def estimates_over(self, thetas, w_bins: int | None = None,
                       n_blocks: int = JACKKNIFE_BLOCKS) -> list[CorrelationEstimate]:
        """Jackknifed correlation estimates at each angle of ``thetas``, from one batch."""
        return [self._estimate(b) for b in self.block_counts_over(thetas, w_bins, n_blocks)]

    def estimate_at(self, theta: float, w_bins: int | None = None,
                    n_blocks: int = JACKKNIFE_BLOCKS) -> CorrelationEstimate:
        """Jackknifed correlation estimate at one angle."""
        return self._estimate(self.block_counts_at(theta, w_bins, n_blocks))


def _table_bytes(top: int, blocks: int) -> int:
    """Bytes of one angle's int64 count table resolving windows up to ``top``."""
    return 8 * 4 * (top + 1) * blocks
