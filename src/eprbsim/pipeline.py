"""Shared simulate-and-estimate plumbing for sweeps, optimizers and scenarios.

A :class:`ThetaEngine` fixes one ensemble of hidden draws (one seed) and
evaluates many relative angles against it.  Station 1 is pinned to z-hat and
station 2 to z-hat rotated by ``theta`` in the xz-plane; the engine's output
at any ``theta`` is bit-identical to ``run_pairs`` with the same parameters,
it merely avoids regenerating the draws and the station-1 events per point.

An engine reads the ``params.n_trials`` trials starting at ``first_trial`` of
the seed's counter stream, so engines at offsets a multiple of ``n_trials``
apart see disjoint, independent ensembles of the same size.
"""

from __future__ import annotations

import numpy as np

from .coincidence import (
    CorrelationEstimate,
    JACKKNIFE_BLOCKS,
    CoincidenceCounts,
    block_cells,
    block_codes,
    block_edges,
    estimate,
)
from .model import Setting, SimParams, _hidden_arrays, _station_kernel

_CACHE_LIMIT = 8 * 10**6  # largest ensemble kept between calls, in trials
_CHUNK = 1 << 22  # trials per chunk when the ensemble is too big to cache


class ThetaEngine:
    """Evaluates correlation estimates over relative angles at a shared seed.

    An ensemble of at most ``_CACHE_LIMIT`` trials is built once and keeps
    what every tally reads: station 2's ``-s`` and ``lambda2`` (32 bytes a
    trial), station 1's ``k1`` (8) and ``x1`` (1), and for each jackknife
    layout in use the base cell codes ``4 * block + 2 * [x1 < 0]`` (8): 57
    bytes a trial once ``estimate_at`` and ``gamma_at`` have run.  A larger
    ensemble is regenerated chunk by chunk on every call.
    """

    def __init__(self, params: SimParams, first_trial: int = 0):
        if first_trial < 0:
            raise ValueError("first_trial must be >= 0")
        self.params = params
        self.first_trial = first_trial
        self._cache = (self._ensemble(0, params.n_trials)
                       if params.n_trials <= _CACHE_LIMIT else None)
        self._codes: dict[int, np.ndarray] = {}

    def _ensemble(self, lo: int, hi: int):
        """Station-2 inputs and station-1 events of trials ``lo..hi-1``."""
        p, first = self.params, self.first_trial
        sx, sy, sz, lam1, lam2 = _hidden_arrays(p.seed, first + lo, first + hi)
        x1, k1 = _station_kernel(0.0, 0.0, 1.0, sx, sy, sz, lam1, p.t0_ratio, p.d)
        for v in (sx, sy, sz):  # station 2 receives -s
            np.negative(v, out=v)
        return (sx, sy, sz, lam2.copy()), x1, k1

    def _chunks(self, edges: np.ndarray):
        """``(station-2 inputs, k1, base cell codes)`` chunk by chunk."""
        if self._cache is not None:
            s2, x1, k1 = self._cache
            if len(edges) not in self._codes:  # one layout per block count
                self._codes[len(edges)] = block_codes(x1, edges)
            yield s2, k1, self._codes[len(edges)]
            return
        n = self.params.n_trials
        for lo in range(0, n, _CHUNK):
            s2, x1, k1 = self._ensemble(lo, min(lo + _CHUNK, n))
            yield s2, k1, block_codes(x1, edges, first=lo)

    def block_counts_at(self, theta: float, w_bins=None,
                        n_blocks: int = JACKKNIFE_BLOCKS):
        """Per-block cell counts at one angle, for one or many windows.

        ``w_bins`` may be an int, a sequence of ints, or None (the params
        window).  Returns the ``(n_blocks, 4)`` count array for a single
        window, or a dict of them keyed by window, in first-seen order, for a
        sequence.
        """
        windows = self.params.w_bins if w_bins is None else w_bins
        single = np.isscalar(windows)
        window_list = [int(windows)] if single else list(dict.fromkeys(int(w) for w in windows))
        if any(w < 1 for w in window_list):
            raise ValueError("w_bins must be >= 1")

        a2 = Setting.from_polar(theta)
        edges = block_edges(self.params.n_trials, n_blocks)
        n_blocks = len(edges) - 1
        cells = {w: np.zeros((n_blocks, 4), dtype=np.int64) for w in window_list}
        for (sx, sy, sz, lam2), k1, base in self._chunks(edges):
            x2, dk = _station_kernel(*a2.vec, sx, sy, sz, lam2,
                                     self.params.t0_ratio, self.params.d)
            np.subtract(k1, dk, out=dk)
            np.abs(dk, out=dk)
            codes = base + (x2 < 0)
            for w in window_list:
                cells[w] += block_cells(codes, dk, w, n_blocks)
        return cells[window_list[0]] if single else cells

    def estimate_at(self, theta: float, w_bins: int | None = None,
                    n_blocks: int = JACKKNIFE_BLOCKS) -> CorrelationEstimate:
        """Jackknifed correlation estimate at one angle."""
        blocks = self.block_counts_at(theta, w_bins, n_blocks)
        return estimate(CoincidenceCounts.from_cells(blocks, self.params.n_trials), blocks)

    def gamma_at(self, theta: float, w_bins: int | None = None) -> float:
        """Coincidence frequency at one angle (cheaper than a full estimate)."""
        return self.estimate_at(theta, w_bins, n_blocks=1).gamma
