"""Shared simulate-and-estimate plumbing for sweeps, optimizers and scenarios.

A :class:`ThetaEngine` fixes one ensemble of hidden draws (one seed) and
counts it at many relative angles and windows.  Station 1 is pinned to z-hat
and station 2 to z-hat rotated by ``theta`` in the xz-plane; the engine's
counts at any ``theta`` and window are bit-identical to tallying
``run_pairs`` with the same parameters, it merely avoids regenerating the
draws and the station-1 events per point.  A call returns one int64 array
of per-block cell counts, a row for each asked window and angle.

An engine reads the ``params.n_trials`` trials starting at ``first_trial`` of
the seed's counter stream, so engines at offsets a multiple of ``n_trials``
apart see disjoint, independent ensembles of the same size.  Every call makes
one pass over the ensemble: each ``_CHUNK`` of trials is built, counted at
every angle of the call while it is in cache, ``_BATCH`` angles per numpy
call, and let go, so no call keeps an ensemble.  A trial is counted by its
window class, so an angle's table holds one row per asked window, not one
per tag difference.  A call whose count tables and lookup table of tag
differences would pass ``_TABLE_LIMIT`` bytes is refused before anything is
made.

The chunks of a pass are shared among worker threads, one for each CPU the
process may run on, by ``_each_chunk``, which also serves ``ttag_io``'s
file formatting and parsing and ``coincidence``'s stream matching.  A
chunk's draws depend only on its trial indices, and the count tables are
integers, so every result is byte-identical at any number of workers and in
any order of chunks.
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
    cell_offsets,
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
_BATCH = 2  # angles a tally counts per numpy call
_TABLE_LIMIT = 1 << 28  # bytes a call's count tables and lookup table may take

# a trial's draw block and the draws' work of ``_hidden_arrays``
_DRAW_LAYOUT = ((DRAWS_PER_TRIAL + 1, np.float64), (3, np.uint64))


def _columns(n: int):
    """Empty ``-sx``, ``-sz``, ``lambda2``, ``x1`` and ``k1`` columns of ``n`` trials."""
    return (np.empty(n), np.empty(n), np.empty(n),
            np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int64))


def _tally_layout(g: int):
    """Cell offsets, then a batch of ``g`` angles' projections, temporaries, tags and signs."""
    return (1, np.int64), (g, np.float64), (g, np.float64), (g, np.int64), (g, bool)


def _draw_buffers(size: int) -> np.ndarray:
    """One flat byte buffer for ``size`` trials of the draws, then of a ``_BATCH`` tally.

    ``_build`` writes a chunk's draws in it, and once the chunk is built the
    tally reuses it: 64 bytes a trial hold both, up to ``_BATCH = 2``.
    """
    per_trial = max(sum(rows * np.dtype(dtype).itemsize for rows, dtype in layout)
                    for layout in (_DRAW_LAYOUT, _tally_layout(_BATCH)))
    return np.empty(per_trial * size, dtype=np.uint8)


def _carve(buf: np.ndarray, m: int, layout) -> list[np.ndarray]:
    """Views of ``buf`` end to end, a ``(rows, m)`` array for each ``(rows, dtype)``."""
    views, at = [], 0
    for rows, dtype in layout:
        size = rows * m * np.dtype(dtype).itemsize
        views.append(buf[at:at + size].view(dtype).reshape(rows, m))
        at += size
    return views


def _cpus() -> int:
    """The number of CPUs this process may run on (all of them where there is no affinity)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _each_chunk(chunks, work, make=lambda: None) -> list:
    """Run ``work(mine, buffers)`` on as many threads as there are CPUs and chunks.

    ``mine`` yields the items of the sequence ``chunks`` in order and is
    shared, so every chunk goes to one worker.  Each worker's ``buffers``
    come from ``make()``, called in this thread before any worker starts, so
    a worker's chunk loop reuses buffers made once a call; the list of them
    is returned, so that workers may add into their own.  This thread is
    one of the workers, so one CPU or one chunk starts no thread, and every
    thread a call starts has ended when it returns.  After an error in a
    worker no worker starts a further chunk, and the error reaches the
    caller.  The engine counts its chunks of trials here, ``ttag_io``
    formats and parses its chunks of rows and bytes, and
    ``coincidence.match_streams`` matches its chunks of events.
    """
    workers = min(_cpus(), len(chunks))
    buffers = [make() for _ in range(workers)]
    lock, pending = threading.Lock(), iter(chunks)

    def mine():
        while True:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            yield item

    def run(own):
        try:
            work(mine(), own)
        finally:  # on an error, the others start no further chunk
            with lock:
                for _ in pending:
                    pass

    if workers < 2:  # no chunk, or one worker: this thread
        for b in buffers:
            work(mine(), b)
        return buffers
    with ThreadPoolExecutor(workers - 1) as pool:
        others = [pool.submit(run, b) for b in buffers[1:]]
        run(buffers[0])
        for f in others:
            f.result()
    return buffers


class ThetaEngine:
    """Counts the coincidence cells over relative angles and windows at a shared seed.

    A tally reads, for each trial, station 2's ``-sx``, ``-sz`` and
    ``lambda2`` and station 1's ``k1`` and ``x1``.  Every setting lies in the
    xz-plane, so the engine needs no ``sy``: station 1 projects ``s`` as
    ``sz`` and station 2 as ``sx * ax + sz * az``.

    Construction builds nothing.  A call streams the ensemble once: its
    chunks are shared among one thread for each CPU, the calling thread one
    of them; numpy lets go of the interpreter lock in the draws, the transform
    and the station law, but every call takes it back.  Each worker's chunk
    buffers are allocated once a call, in the calling thread, and the count
    tables are shared: a worker adds its chunk's counts to a batch of
    angles' tables under that batch's lock.

    ``block_counts_over`` tallies a grid of angles: station 1's part of the
    cell codes, ``[x1 < 0]`` and the chunk's block spans, is formed once a
    chunk, and the angles are counted on the chunk while it is in cache,
    ``_BATCH`` at a time.  A batch is one ``(g, m)`` array per step, the
    projections ``sx * ax + sz * az`` by broadcast, run through the station
    law and ``|k1 - k2|`` together and counted by one ``add_cells`` call, so
    a chunk makes about 20 numpy calls a batch, not an angle.  The batch's
    arrays are views into the worker's draw buffers, dead once the chunk is
    built: 64 bytes a trial hold the draws or two angles' tally.
    ``block_counts_at`` is the one-angle, one-window case.  One tally of an
    angle counts every asked window at once.  The windows' bounds are the
    sorted distinct ``min(w, max_tag + 1)``, and a trial's class is the
    number of bounds at or below its ``|k1 - k2|``; ``add_cells`` counts the
    classes as its group, and the table is then summed cumulatively over the
    classes in place.  An angle's int64 table takes ``32`` bytes a block for
    each bound, and one more row when the widest bound is within ``max_tag``
    (12,800 bytes at 100 blocks and windows 1, 16 and 285).
    """

    def __init__(self, params: SimParams, first_trial: int = 0):
        self.first_trial, _ = check_trials(first_trial, first_trial + params.n_trials)
        self.params = params

    def _build(self, lo: int, buf, sx, sz, lam2, x1, k1) -> None:
        """Write the chunk of trials from ``lo`` into the given ``_columns`` views.

        ``buf`` is a ``_draw_buffers`` at least a chunk long; its contents are
        dead once this returns.
        """
        p, first, m = self.params, self.first_trial + lo, len(sx)
        block, work = _carve(buf, m, _DRAW_LAYOUT)
        hx, _, hz, lam1, hlam2 = _hidden_arrays(p.seed, first, first + m, y=False,
                                                out=block, work=work)
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
        built once, its cell offsets are formed once, and the angles are
        counted on it ``_BATCH`` at a time while it is in cache.
        """
        p, n, g = self.params, self.params.n_trials, _BATCH
        top, classes = _classes(bounds, p.max_tag)
        # the selection grid asks every window, so its dk is its class: a gather
        # there cost 27 us a 2^15 chunk and angle, 10 % of smax-paper's op_s
        lut = None
        if bounds[-1] != len(bounds):
            lut = np.searchsorted(bounds, np.arange(top + 1), side="right")
        axes = np.array([Setting.from_polar(t).vec[::2] for t in thetas])  # its y is 0
        hist = np.zeros((len(thetas), len(edges) - 1, 4 * classes), dtype=np.int64)
        batches = [(j, min(j + g, len(thetas))) for j in range(0, len(thetas), g)]
        locks = [threading.Lock() for _ in batches]  # one worker at a time adds to a batch
        size = min(n, _CHUNK)

        def make():
            return _draw_buffers(size), _columns(size)

        def work(starts, buffers):
            buf, build = buffers
            for lo in starts:
                cols = [col[:n - lo] for col in build]
                self._build(lo, buf, *cols)
                sx, sz, lam2, x1, k1 = cols
                m = len(sx)
                # views into the dead draws: the chunk's cell offsets, then a batch
                (offsets,), proj, term, k2, neg2 = _carve(buf, m, _tally_layout(g))
                spans = block_spans(edges, lo, lo + m)
                # neg2's first row holds [x1 < 0] until the offsets are made
                cell_offsets(np.less(x1, 0, out=neg2[0]), spans, 4 * classes, out=offsets)
                blocks = slice(spans[0][0], spans[-1][0] + 1)
                for (j, stop), lock in zip(batches, locks):
                    rows = stop - j
                    c = np.multiply(sx, axes[j:stop, :1], out=proj[:rows])
                    c += np.multiply(sz, axes[j:stop, 1:], out=term[:rows])
                    neg, dk = _station_kernel(c, lam2, p.t0_ratio, p.d,
                                              out=(neg2[:rows], k2[:rows]), tmp=term[:rows])
                    np.subtract(k1, dk, out=dk)
                    np.abs(dk, out=dk)
                    if lut is not None:  # into the dead projections
                        dk = np.take(lut, dk, out=c.view(np.int64), mode="clip")
                    elif top < p.max_tag:
                        np.minimum(dk, top, out=dk)
                    with lock:
                        add_cells(hist[j:stop, blocks], dk, offsets, neg)

        if thetas:
            _each_chunk(range(0, n, _CHUNK), work, make)
        table = hist.reshape(len(thetas), len(edges) - 1, classes, 4)
        return np.cumsum(table, axis=2, out=table)[:, :, :len(bounds)]

    def block_counts_over(self, thetas, windows,
                          n_blocks: int = JACKKNIFE_BLOCKS) -> np.ndarray:
        """Per-block cell counts at every window of ``windows`` and angle of ``thetas``.

        Returns one int64 array of shape ``(len(windows), len(thetas),
        n_blocks, 4)``, its rows in the asked order, a repeat included.  The
        distinct angles and windows are tallied together in one pass over the
        ensemble.
        """
        windows = [check_window(w) for w in windows]
        if not windows:
            raise ValueError("windows must name at least one window, got an empty sequence")
        thetas = [float(t) for t in thetas]

        p = self.params
        edges = block_edges(p.n_trials, n_blocks)
        clipped = [min(w, p.max_tag + 1) for w in windows]
        bounds = sorted(set(clipped))
        distinct = list(dict.fromkeys(thetas))
        _check_table(len(distinct), bounds, p, n_blocks, max(windows))

        row = {b: i for i, b in enumerate(bounds)}
        angle = {t: i for i, t in enumerate(distinct)}
        tables = self._cumulative(distinct, edges, bounds)
        picked = tables[:, :, [row[b] for b in clipped]][[angle[t] for t in thetas]]
        return np.ascontiguousarray(picked.transpose(2, 0, 1, 3))

    def block_counts_at(self, theta: float, w_bins: int | None = None,
                        n_blocks: int = JACKKNIFE_BLOCKS) -> np.ndarray:
        """The ``(n_blocks, 4)`` counts at one angle and window (None: the params window)."""
        w = self.params.w_bins if w_bins is None else w_bins
        return self.block_counts_over([theta], [w], n_blocks)[0, 0]

    def estimate_at(self, theta: float, w_bins: int | None = None,
                    n_blocks: int = JACKKNIFE_BLOCKS) -> CorrelationEstimate:
        """Jackknifed correlation estimate at one angle."""
        blocks = self.block_counts_at(theta, w_bins, n_blocks)
        return estimate(CoincidenceCounts.from_cells(blocks, self.params.n_trials), blocks)


def _table_bytes(angles, classes: int, top: int, n_blocks: int):
    """Bytes a tally's tables take: 4 int64 counts a block, window class and
    angle, and an int64 lookup entry for each tag difference up to ``top``."""
    return 32 * classes * n_blocks * angles + 8 * (top + 1)


def _check_table(angles: int, bounds, params: SimParams, n_blocks: int, w_bins: int) -> None:
    """Refuse a tally at sorted window ``bounds`` whose tables would pass ``_TABLE_LIMIT``."""
    top, classes = _classes(bounds, params.max_tag)
    size = _table_bytes(angles, classes, top, n_blocks)
    if size > _TABLE_LIMIT:
        raise ValueError(
            f"the count tables of {angles} angles at {classes} window classes "
            f"and the lookup table of {top + 1} tag differences come to {size} bytes, "
            f"over the {_TABLE_LIMIT}-byte limit (w_bins={w_bins}, "
            f"t0_ratio={params.t0_ratio!r}, n_blocks={n_blocks}); ask for a narrower window, "
            f"fewer angles or fewer blocks")


def _classes(bounds, max_tag: int) -> tuple[int, int]:
    """``(top, classes)`` of sorted window bounds: the widest difference told apart, and
    one class a bound, plus one past the widest if some difference reaches it."""
    top = min(max_tag, bounds[-1])
    return top, len(bounds) + (bounds[-1] <= top)
