"""Shared simulate-and-estimate plumbing for sweeps, optimizers and scenarios.

A :class:`ThetaEngine` fixes one ensemble of hidden draws (one seed) and
evaluates many relative angles against it.  Station 1 is pinned to z-hat and
station 2 to z-hat rotated by ``theta`` in the xz-plane; the engine's output
at any ``theta`` is bit-identical to ``run_pairs`` with the same parameters,
it merely avoids regenerating the draws and the station-1 events per point.

An engine reads the ``params.n_trials`` trials starting at ``first_trial`` of
the seed's counter stream, so engines at offsets a multiple of ``n_trials``
apart see disjoint, independent ensembles of the same size.  It builds and
tallies ``_CHUNK`` trials at a time.  A call tallies its grid of angles in
as few passes over the ensemble as its count tables allow: each chunk is
built, or read, once a pass and counted at every angle of the pass while it
is in cache.  A call of one pass streams its chunks and keeps no ensemble; a
call of several keeps the ensemble's columns, 33 bytes a trial, and reads
them on each pass.  One angle's table beyond ``_TABLE_LIMIT`` bytes is
refused before any is made.

The chunks of a build or a pass are shared among worker threads, one for
each CPU the process may run on.  A chunk's draws depend only on its trial
indices, and the count tables are integers, so every result is
byte-identical at any number of workers and in any order of chunks.
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

_CACHE_LIMIT = 8 * 10**6  # largest ensemble kept, in trials
_CHUNK = 1 << 15  # trials per step of a build or a pass; fits in L2
_KEPT_BYTES = 33  # bytes a kept trial takes
_TABLE_BUDGET = 2 << 20  # bytes of count tables one of several passes fills
_TABLE_LIMIT = 1 << 28  # bytes of one angle's count table
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
    ``lambda2`` (24 bytes a trial) and station 1's ``k1`` (8) and ``x1``
    (1), ``_KEPT_BYTES`` in all.  Every setting lies in the xz-plane, so the
    engine needs no ``sy``: station 1 projects ``s`` as ``sz`` and station 2
    as ``sx * ax + sz * az``.

    Keep or stream.  Construction builds nothing.  A call whose count tables
    fit in one pass builds each chunk, tallies it and lets it go, so it
    holds no ensemble.  A call that needs several passes first keeps the
    columns of the whole ensemble, if it has at most ``_CACHE_LIMIT``
    trials, and reads them on each pass; later calls read them too.  A
    larger ensemble is built afresh on each pass.  One pass holds the tables
    of as many angles as fit ``_TABLE_BUDGET``, or of every angle when they
    fit in the bytes a kept ensemble would take.  The rule reads only the
    call: today the figure sweeps (37 angles at 100 blocks) make several
    passes, and the selection grid, the held-out legs and the gamma grids
    make one.

    Workers.  The chunks of a build or a pass are shared among
    ``_WORKERS`` threads, the calling thread one of them; numpy lets go of
    the interpreter lock in the draws, the transform and the station law.
    Each worker's chunk buffers are allocated once a call, in the calling
    thread, and a pass's count tables are shared: a worker adds its chunk's
    counts to an angle's table under that table's lock.

    ``block_counts_over`` tallies a grid of angles: station 1's sign bits
    ``[x1 < 0]`` and the chunk's block spans are formed once a chunk, and
    every angle is counted on the chunk while it is in cache;
    ``block_counts_at`` is its one-angle case.  One tally of an angle counts
    every window at once: ``add_cells`` with ``|k1 - k2|`` as the group,
    one ``bincount`` per jackknife block, summed cumulatively over ``|k1 -
    k2|`` in place.  An angle's int64 table takes ``32 * (top + 1)`` bytes a
    block, ``top`` being the widest window it resolves (915 kB at 100
    blocks and ``top = 285``).
    """

    def __init__(self, params: SimParams, first_trial: int = 0):
        self.first_trial, _ = check_trials(first_trial, first_trial + params.n_trials)
        self.params = params
        self._kept = None

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

    def _keep(self) -> None:
        """Keep the columns of the whole ensemble, built on every worker."""
        n = self.params.n_trials
        kept = _columns(n)

        def work(starts, draws):
            for lo in starts:
                self._build(lo, draws, *(col[lo:lo + _CHUNK] for col in kept))

        _each_chunk(n, lambda: _draw_buffers(min(n, _CHUNK)), work)
        self._kept = kept

    def _passes(self, thetas, edges: np.ndarray, top: int, pick) -> dict:
        """``{theta: picked}`` for the distinct ``thetas``, in as few passes as fit.

        Each pass's tables, ``_cumulative(group, edges, top)``, fit
        ``_TABLE_BUDGET``, or every angle goes in one pass when their tables
        fit the bytes a kept ensemble would take; ``pick`` maps them to one
        array per angle, so no group's tables outlive its pass.  Only a call
        of several passes keeps the ensemble.
        """
        n = self.params.n_trials
        size = _table_bytes(top, len(edges) - 1)
        keeps = n <= _CACHE_LIMIT
        group = len(thetas)
        if group * size > max(_TABLE_BUDGET, _KEPT_BYTES * n if keeps else 0):
            group = max(1, _TABLE_BUDGET // size)
        if group < len(thetas) and keeps and self._kept is None:
            self._keep()
        picked = {}
        for i in range(0, len(thetas), group):
            batch = thetas[i:i + group]
            picked.update(zip(batch, pick(self._cumulative(batch, edges, top))))
        return picked

    def _cumulative(self, thetas, edges: np.ndarray, top: int) -> np.ndarray:
        """The ``(len(thetas), n_blocks, top + 1, 4)`` tables: row ``j`` counts ``|k1 - k2| <= j``.

        Differences above ``top`` are counted in the last row, so row
        ``min(w, top + 1) - 1`` holds window ``w`` for every ``w <= top`` and,
        when ``top`` is ``max_tag``, for every ``w``.  One pass: each chunk is
        read from the kept columns, or built into a chunk-sized set, once;
        station 1's sign bits and the chunk's block spans are formed once;
        and every angle is counted on it while it is in cache.
        """
        p, n = self.params, self.params.n_trials
        axes = [Setting.from_polar(t).vec[::2].tolist() for t in thetas]  # its y is 0
        hist = np.zeros((len(thetas), len(edges) - 1, 4 * (top + 1)), dtype=np.int64)
        locks = [threading.Lock() for _ in thetas]  # one worker at a time adds to a table
        size, kept = min(n, _CHUNK), self._kept

        def make():
            build = (_draw_buffers(size), _columns(size)) if kept is None else None
            return (np.empty((2, size)), np.empty((2, size), dtype=bool),
                    np.empty(size, dtype=np.int64), build)

        def work(starts, buffers):
            (proj, term), (neg1, neg2), k2, build = buffers
            for lo in starts:
                if build is None:
                    cols = [col[lo:lo + _CHUNK] for col in kept]
                else:
                    cols = [col[:n - lo] for col in build[1]]
                    self._build(lo, build[0], *cols)
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
                    if top < p.max_tag:
                        np.minimum(dk, top, out=dk)
                    with lock:
                        add_cells(out, dk, neg1[:m], neg, spans)

        _each_chunk(n, make, work)
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
