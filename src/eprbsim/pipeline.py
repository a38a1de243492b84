"""Shared simulate-and-estimate plumbing for sweeps, optimizers and scenarios.

A :class:`ThetaEngine` fixes one ensemble of hidden draws (one seed) and
evaluates many relative angles against it.  Station 1 is pinned to z-hat and
station 2 to z-hat rotated by ``theta`` in the xz-plane; the engine's output
at any ``theta`` is bit-identical to ``run_pairs`` with the same parameters,
it merely avoids regenerating the draws and the station-1 events per point.

An engine reads the ``params.n_trials`` trials starting at ``first_trial`` of
the seed's counter stream, so engines at offsets a multiple of ``n_trials``
apart see disjoint, independent ensembles of the same size.  Every call makes
one pass over the ensemble: each ``_CHUNK`` of trials is built, counted at
every angle of the call while it is in cache, and let go, so no call keeps
an ensemble.  A trial is counted by its window class, so an angle's table
holds one row per asked window, not one per tag difference.  A call that
resolves more tag differences than ``_TABLE_LIMIT`` allows, at 32 bytes a
difference and jackknife block, is refused before anything is made.

The chunks of a pass are shared among worker threads, one for each CPU the
process may run on.  A chunk's draws depend only on its trial indices, and
the count tables are integers, so every result is byte-identical at any
number of workers and in any order of chunks.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .coincidence import (
    CorrelationEstimate,
    JACKKNIFE_BLOCKS,
    CoincidenceCounts,
    add_cells,
    block_edges,
    block_spans,
    estimate,
)
from .model import (
    DRAWS_PER_TRIAL,
    Setting,
    SimParams,
    _hidden_arrays,
    _station_kernel,
    check_window,
)
from .rng import check_trials

_CHUNK = 1 << 15  # trials per step of a pass; fits in L2
_TABLE_LIMIT = 1 << 28  # bytes a call's tag-difference range may take at 32 a difference and block
_WORKERS = None  # threads a call runs on; None: as many as the CPUs this process may use


def _columns(n: int):
    """Empty ``-sx``, ``-sz``, ``lambda2``, ``x1`` and ``k1`` columns of ``n`` trials."""
    return (np.empty(n), np.empty(n), np.empty(n),
            np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int64))


def _draw_buffers(size: int):
    """The draw block and the draws' work of ``_hidden_arrays`` for ``size`` trials."""
    return np.empty((DRAWS_PER_TRIAL + 1, size)), np.empty((3, size), dtype=np.uint64)


def _cpus() -> int:
    """The number of CPUs this process may run on (all of them where there is no affinity)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _each_chunk(n: int, make, work) -> None:
    """Run ``work(starts, buffers)`` on as many threads as there are workers and chunks.

    ``starts`` yields the first trial of each ``_CHUNK`` of ``n`` trials and
    is shared, so every chunk goes to one worker.  Each worker's ``buffers``
    come from ``make()``, called in this thread before any worker starts, so
    a worker's chunk loop reuses buffers made once a call.  This thread is
    one of the workers, so one worker starts no thread, and every thread a
    call starts has ended when it returns.
    """
    chunks = range(0, n, _CHUNK)
    workers = min(_WORKERS or _cpus(), len(chunks))
    buffers = [make() for _ in range(workers)]
    lock, pending = threading.Lock(), iter(chunks)

    def starts():
        while True:
            with lock:
                lo = next(pending, None)
            if lo is None:
                return
            yield lo

    if workers == 1:
        work(starts(), buffers[0])
        return
    with ThreadPoolExecutor(workers - 1) as pool:
        others = [pool.submit(work, starts(), b) for b in buffers[1:]]
        try:
            work(starts(), buffers[0])
        finally:  # on an error here, the others start no further chunk
            with lock:
                for _ in pending:
                    pass
        for f in others:
            f.result()


class ThetaEngine:
    """Evaluates correlation estimates over relative angles at a shared seed.

    A tally reads, for each trial, station 2's ``-sx``, ``-sz`` and
    ``lambda2`` and station 1's ``k1`` and ``x1``.  Every setting lies in the
    xz-plane, so the engine needs no ``sy``: station 1 projects ``s`` as
    ``sz`` and station 2 as ``sx * ax + sz * az``.

    Construction builds nothing.  A call streams the ensemble once: its
    chunks are shared among ``_WORKERS`` threads, the calling thread one of
    them; numpy lets go of the interpreter lock in the draws, the transform
    and the station law.  Each worker's chunk buffers are allocated once a
    call, in the calling thread, and the count tables are shared: a worker
    adds its chunk's counts to an angle's table under that table's lock.

    ``block_counts_over`` tallies a grid of angles: station 1's sign bits
    ``[x1 < 0]`` and the chunk's block spans are formed once a chunk, and
    every angle is counted on the chunk while it is in cache;
    ``block_counts_at`` is its one-angle case.  One tally of an angle counts
    every asked window at once.  The windows' bounds are the sorted distinct
    ``min(w, max_tag + 1)``, and a trial's class is the number of bounds at
    or below its ``|k1 - k2|``; ``add_cells`` counts the classes as its
    group, one ``bincount`` per jackknife block, and the table is then
    summed cumulatively over the classes in place.  An angle's int64 table
    takes ``32`` bytes a block for each bound, and one more row when the
    widest bound is within ``max_tag`` (12,800 bytes at 100 blocks and
    windows 1, 16 and 285).
    """

    def __init__(self, params: SimParams, first_trial: int = 0):
        self.first_trial, _ = check_trials(first_trial, first_trial + params.n_trials)
        self.params = params

    def _build(self, lo: int, draws, sx, sz, lam2, x1, k1) -> None:
        """Write the chunk of trials from ``lo`` into the given ``_columns`` views.

        ``draws`` is a pair of ``_draw_buffers`` at least a chunk long.
        """
        p, first, m = self.params, self.first_trial + lo, len(sx)
        block, work = draws
        hx, _, hz, lam1, hlam2 = _hidden_arrays(p.seed, first, first + m, y=False,
                                                out=block[:, :m], work=work[:, :m])
        np.negative(hx, out=sx)  # station 2 receives -s
        np.negative(hz, out=sz)
        lam2[:] = hlam2
        # z-hat . s is sz; the sign bits land in x1's bytes, then become -1 or +1
        _station_kernel(hz, lam1, p.t0_ratio, p.d, out=(x1.view(bool), k1), tmp=hx)
        np.multiply(x1, np.int8(-2), out=x1)
        x1 += 1

    def _cumulative(self, thetas, edges: np.ndarray, bounds: list[int]) -> np.ndarray:
        """Each angle's ``(n_blocks, len(bounds), 4)`` table; row ``i`` holds window ``bounds[i]``.

        ``bounds`` are sorted distinct windows of at most ``max_tag + 1``.  A
        trial's class, the number of bounds at or below its ``dk = |k1 -
        k2|``, is read from a table of the ``top + 1`` differences the bounds
        tell apart, ``top = min(max_tag, bounds[-1])``; a wider difference
        has the class of ``top``.  When the bounds are ``1..len(bounds)`` the
        class is ``min(dk, top)``, with no table.  One pass: each chunk is
        built once, station 1's sign bits and the chunk's block spans are
        formed once, and every angle is counted on it while it is in cache.
        """
        p, n = self.params, self.params.n_trials
        top = min(p.max_tag, bounds[-1])
        # one class a bound, and one past the widest if some dk reaches it
        classes = len(bounds) + (bounds[-1] <= top)
        # the selection grid asks every window, so its dk is its class: a gather
        # there cost 27 us a 2^15 chunk and angle, 10 % of smax-paper's op_s
        lut = None
        if bounds[-1] != len(bounds):
            lut = np.searchsorted(bounds, np.arange(top + 1), side="right")
        axes = [Setting.from_polar(t).vec[::2].tolist() for t in thetas]  # its y is 0
        hist = np.zeros((len(thetas), len(edges) - 1, 4 * classes), dtype=np.int64)
        locks = [threading.Lock() for _ in thetas]  # one worker at a time adds to a table
        size = min(n, _CHUNK)

        def make():
            return (_draw_buffers(size), _columns(size), np.empty((2, size)),
                    np.empty((2, size), dtype=bool), np.empty((2, size), dtype=np.int64))

        def work(starts, buffers):
            draws, build, (proj, term), (neg1, neg2), (k2, group) = buffers
            for lo in starts:
                cols = [col[:n - lo] for col in build]
                self._build(lo, draws, *cols)
                sx, sz, lam2, x1, k1 = cols
                m = len(sx)
                np.less(x1, 0, out=neg1[:m])
                spans = block_spans(edges, lo, lo + m)
                for (ax, az), out, lock in zip(axes, hist, locks):
                    c = np.multiply(sx, ax, out=proj[:m])
                    c += np.multiply(sz, az, out=term[:m])
                    neg, dk = _station_kernel(c, lam2, p.t0_ratio, p.d,
                                              out=(neg2[:m], k2[:m]), tmp=term[:m])
                    np.subtract(k1, dk, out=dk)
                    np.abs(dk, out=dk)
                    if lut is not None:
                        dk = np.take(lut, dk, out=group[:m], mode="clip")
                    elif top < p.max_tag:
                        np.minimum(dk, top, out=dk)
                    with lock:
                        add_cells(out, dk, neg1[:m], neg, spans)

        if thetas:
            _each_chunk(n, make, work)
        table = hist.reshape(len(thetas), len(edges) - 1, classes, 4)
        return np.cumsum(table, axis=2, out=table)[:, :, :len(bounds)]

    def block_counts_over(self, thetas, w_bins=None,
                          n_blocks: int = JACKKNIFE_BLOCKS):
        """Per-block cell counts at every angle of ``thetas``, for one or many windows.

        ``w_bins`` may be an int, a non-empty sequence of ints, or None (the
        params window).  Returns the ``(len(thetas), n_blocks, 4)`` count
        array for a single window, or a dict of them keyed by window, in
        first-seen order, for a sequence.  The distinct angles and windows
        are tallied together in one pass over the ensemble.
        """
        windows = self.params.w_bins if w_bins is None else w_bins
        single = np.isscalar(windows)
        window_list = list(dict.fromkeys(map(check_window, [windows] if single else windows)))
        if not window_list:
            raise ValueError("w_bins must name at least one window, got an empty sequence")
        thetas = [float(t) for t in thetas]

        p = self.params
        edges = block_edges(p.n_trials, n_blocks)
        top = min(p.max_tag, max(window_list))
        size = _table_bytes(top, len(edges) - 1)
        if size > _TABLE_LIMIT:
            raise ValueError(
                f"the count table limit bounds the tag differences a call resolves: "
                f"{top + 1} differences at 32 bytes a difference and block come to {size} "
                f"bytes, over the {_TABLE_LIMIT}-byte limit (w_bins={max(window_list)}, "
                f"t0_ratio={p.t0_ratio!r}, n_blocks={n_blocks}); ask for a narrower window "
                f"or fewer blocks")

        clipped = [min(w, p.max_tag + 1) for w in window_list]
        bounds = sorted(set(clipped))
        row = {b: i for i, b in enumerate(bounds)}
        distinct = list(dict.fromkeys(thetas))
        angle = {t: i for i, t in enumerate(distinct)}
        tables = self._cumulative(distinct, edges, bounds)
        picked = tables[:, :, [row[b] for b in clipped]][[angle[t] for t in thetas]]
        counts = np.ascontiguousarray(picked.transpose(2, 0, 1, 3))
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
    """Bytes of a per-difference int64 table of windows up to ``top``, as the limit counts."""
    return 8 * 4 * (top + 1) * blocks
