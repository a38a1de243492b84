"""CHSH-type combinations, their bounds, and searches over settings.

``maximize_S`` exploits rotational invariance: the correlation depends on a
setting pair only through their relative angle, so it is estimated once on a
theta grid (one shared seed), interpolated with a monotone cubic, and the
four-correlation combination is then maximized over planar angle quadruples
(``_maximize_curve``).
The maximum of a noisy curve is biased upward, so the reported combination is
not read off that curve: each of the four legs (setting pairs) is estimated
afresh at the chosen angles on its own independent ensemble of the same size,
and the selection-time value is kept alongside for comparison.
The coincidence-frequency infimum is the minimum over the selection grid.

The selection grid's cell counts at every window are kept between calls, so
a scan over windows at one seed (``fit_window``) tallies the grid once; the
selection ensemble itself is dropped as soon as it is tallied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .coincidence import CoincidenceCounts, estimate
from .errors import FitError
from .model import SimParams
from .pipeline import _TABLE_LIMIT, ThetaEngine, _check_table, _table_bytes

TRIVIAL_BOUND = 4.0
CHSH_BOUND = 2.0

#: Default spacing of the correlation-estimation grid on [0, pi].
THETA_STEP = math.pi / 72

_COARSE_STEP = math.pi / 36  # spacing of the coarse angle-quadruple grid
_REFINE_TOL = math.pi / 720  # golden-section termination width of the quadruple refinement
_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
_MEMO_TOP = 4096  # widest window the selection table resolves unless a wider one is asked


def s_value(e_ac: float, e_ad: float, e_bc: float, e_bd: float) -> float:
    """The four-correlation combination ``e_ac - e_ad + e_bc + e_bd``.

    Inputs must be valid correlations in [-1, 1]; the result there is bounded
    by 4 in magnitude.
    """
    for name, e in (("e_ac", e_ac), ("e_ad", e_ad), ("e_bc", e_bc), ("e_bd", e_bd)):
        if not -1.0 <= e <= 1.0:
            raise ValueError(f"{name} must lie in [-1, 1], got {e!r}")
    return e_ac - e_ad + e_bc + e_bd


def lg_bound(gamma: float) -> float:
    """Window post-selection bound ``6/gamma - 4`` on the combination.

    Defined for a coincidence-frequency infimum in (0, 1]; at ``gamma = 1``
    it reduces to the bound 2.  Values of ``gamma`` below 3/4 make the bound
    exceed the trivial bound 4, rendering it vacuous.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma!r}")
    return 6.0 / gamma - 4.0


@dataclass(frozen=True)
class ViolationFlags:
    """Which descriptive bounds a combination magnitude exceeds."""

    chsh: bool
    lg: bool
    super_quantum: bool


def check_violations(s: float, gamma_inf: float) -> ViolationFlags:
    """Flag the bounds exceeded by ``|s|``.  Descriptive report fields only."""
    if abs(s) > TRIVIAL_BOUND + 1e-12:
        raise ValueError(f"|s| must not exceed {TRIVIAL_BOUND}, got {s!r}")
    return ViolationFlags(
        chsh=abs(s) > CHSH_BOUND,
        lg=abs(s) > lg_bound(gamma_inf),
        super_quantum=abs(s) > 2.0 * math.sqrt(2.0),
    )


@dataclass(frozen=True)
class SReport:
    """Result of a settings search: the combination, its maximizing polar
    angles ``quad_angles`` (``a``, ``b`` at station 1, ``c``, ``d`` at 2) and bounds.

    ``s`` is the held-out combination: its four legs are estimated at the
    chosen angles on ensembles independent of the one that chose them, and
    ``stderr_s`` is the root-sum-square of the four legs' jackknife errors,
    or ``None`` when a leg has no error (one block holds all its coincidences).
    ``s_select`` is the maximum of the interpolated selection curve, biased
    upward by the selection; it is reported for comparison only.
    """

    s: float
    gamma_inf: float
    bound_trivial: float
    bound_chsh: float
    bound_lg: float
    flags: ViolationFlags
    stderr_s: float | None = None
    gamma_argmin: float | None = None
    quad_angles: tuple[float, float, float, float] | None = None
    s_select: float | None = None


@dataclass(frozen=True)
class GammaInfimum:
    """Minimum estimated coincidence frequency and the angle attaining it."""

    gamma: float
    theta: float


def _theta_grid(theta_step: float) -> np.ndarray:
    if not (theta_step > 0 and math.isfinite(theta_step)):
        raise ValueError(f"theta_step must be positive and finite, got {theta_step!r}")
    span = math.pi / theta_step
    # the smallest selection table: one block of two window classes, at max_tag = 1
    if _table_bytes(span + 1, 2, 1, 1) > _TABLE_LIMIT:
        raise ValueError(f"theta_step={theta_step!r} gives {span + 1:.4g} angles, whose "
                         f"count tables pass the {_TABLE_LIMIT}-byte table limit")
    n = int(round(span))
    if n < 4:
        raise ValueError("theta grid needs at least 5 points covering [0, pi]")
    return np.linspace(0.0, math.pi, n + 1)


def _golden_max(f, lo: float, hi: float, tol: float):
    """Golden-section maximization of ``f`` on [lo, hi] to interval width ``tol``."""
    x1 = hi - _GOLDEN_RATIO * (hi - lo)
    x2 = lo + _GOLDEN_RATIO * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN_RATIO * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN_RATIO * (hi - lo)
            f1 = f(x1)
    xm = 0.5 * (lo + hi)
    return xm, f(xm)


def _fold(delta):
    """Map an angle difference to the relative angle in [0, pi]."""
    d = np.abs(np.mod(delta, 2.0 * math.pi))
    return np.where(d > math.pi, 2.0 * math.pi - d, d)


def _maximize_curve(thetas, e_values):
    """Maximize the combination over planar quadruples of one E(theta) curve.

    The curve is a PCHIP interpolant of ``e_values``.  A coarse grid of
    quadruples with ``a = 0`` is searched first, then each angle in turn by
    golden section.  Returns the maximum and its angles ``(a, b, c, d)`` in
    [0, 2 pi).
    """
    interp = PchipInterpolator(thetas, e_values)

    def s_of(quad_angles) -> float:
        a, b, c, d = quad_angles
        e_ac, e_ad, e_bc, e_bd = interp(_fold(np.array([a - c, a - d, b - c, b - d])))
        return float(e_ac - e_ad + e_bc + e_bd)

    m = max(8, int(round(2.0 * math.pi / _COARSE_STEP)))
    step = 2.0 * math.pi / m
    table = interp(_fold(np.arange(m) * step))
    # the combination only sees angle differences, so pin a = 0
    b = np.arange(m)[:, None, None]
    c = np.arange(m)[None, :, None]
    d = np.arange(m)[None, None, :]
    s = (table[(-c) % m] - table[(-d) % m]
         + table[(b - c) % m] + table[(b - d) % m])
    ib, ic, id_ = np.unravel_index(int(np.argmax(s)), s.shape)
    best = [0.0, ib * step, ic * step, id_ * step]
    best_s = float(s[ib, ic, id_])

    for _ in range(4):
        improved = False
        for axis in range(4):
            def on_axis(x, axis=axis):
                q = list(best)
                q[axis] = x
                return s_of(q)

            x, v = _golden_max(on_axis, best[axis] - step, best[axis] + step, _REFINE_TOL)
            if v > best_s + 1e-15:
                best[axis] = x
                best_s = v
                improved = True
        if not improved:
            break
    return best_s, tuple(float(t % (2.0 * math.pi)) for t in best)


def _gamma_infimum(thetas, gammas) -> GammaInfimum:
    """Grid minimum of the coincidence frequency and its angle."""
    idx = int(np.argmin(gammas))
    return GammaInfimum(gamma=float(gammas[idx]), theta=float(thetas[idx]))


#: The last selection table, keyed by its ensemble and grid
#: ``(seed, t0_ratio, d, n_trials, grid)``: ``table[w - 1]`` holds the one-block
#: cell counts of every grid angle at window ``w``.
_selection: dict[tuple, np.ndarray] = {}


def _selection_cells(params: SimParams, thetas: np.ndarray) -> np.ndarray:
    """The ``(len(thetas), 4)`` cell counts of the selection grid at ``params.w_bins``.

    The grid is tallied once at every window up to ``min(max_tag, max(w,
    _MEMO_TOP)) + 1``, which is every window when it passes ``max_tag``, and
    that table is kept: a call that differs only in a window the table
    resolves reads its row and tallies nothing, and a wider window rebuilds
    it.  The selection engine is dropped as soon as the table is made.
    """
    key = (params.seed, params.t0_ratio, params.d, params.n_trials, tuple(thetas.tolist()))
    w, table = params.w_bins, _selection.get(key)
    if table is None or (len(table) < w and len(table) <= params.max_tag):
        _selection.clear()  # free the old table before tallying the new one
        windows = range(1, min(params.max_tag, max(w, _MEMO_TOP)) + 2)
        _check_table(len(thetas), windows, params, 1, w)  # before a list of the windows
        counts = ThetaEngine(params).block_counts_over(thetas, windows, n_blocks=1)
        # a copy, so the tally's array is freed: kept, it left the legs' chunk buffers on
        # fresh pages each call (window-scan: 92,424 minor faults an operation, not 17,160)
        table = _selection[key] = counts[:, :, 0].copy()
    return table[min(w, len(table)) - 1]


def maximize_S(params: SimParams, theta_step: float = THETA_STEP) -> SReport:
    """Search planar settings for the maximal combination at one seed.

    Estimates E(theta) on the search grid with trials shared across points
    and maximizes the combination over angle quadruples of that curve with
    :func:`_maximize_curve`; that maximum is ``s_select``.
    The reported ``s`` is held out: leg ``i`` of the chosen quadruple is
    estimated on trials ``(i+1)N .. (i+2)N-1`` of the seed's counter stream
    (``N = params.n_trials``), so each setting pair gets its own ensemble of
    ``N`` trials, disjoint from the selection ensemble ``0 .. N-1``.  The
    coincidence infimum over the selection grid is reported alongside the
    trivial, CHSH-form and post-selection bounds.

    The selection grid's counts do not depend on the window, so calls that
    differ only in ``params.w_bins`` share one tally of it: its cell counts
    at every window are kept, and the selection ensemble is dropped once
    they are made, before any leg is built.  At most one such table stays
    alive after a call; it is freed when a call with another seed,
    ``t0_ratio``, ``d``, ``n_trials`` or grid arrives.  The four held-out
    legs are built and dropped one at a time on every call.
    """
    thetas = _theta_grid(theta_step)
    ests = [estimate(CoincidenceCounts.from_cells(cells, params.n_trials))
            for cells in _selection_cells(params, thetas)]
    e_vals = np.array([est.e if est.e is not None else 0.0 for est in ests])
    undefined = [i for i, est in enumerate(ests) if est.e is None]
    if undefined:
        raise FitError(
            f"no coincidences at {len(undefined)} grid angles "
            f"(first at theta={thetas[undefined[0]]:.4f}); window too small for N")
    gammas = np.array([est.gamma for est in ests])
    s_select, angles = _maximize_curve(thetas, e_vals)

    n = params.n_trials
    a, b, c, d = angles
    legs = [ThetaEngine(params, first_trial=(i + 1) * n).estimate_at(float(_fold(delta)))
            for i, delta in enumerate((a - c, a - d, b - c, b - d))]
    if any(leg.e is None for leg in legs):
        raise FitError("no coincidences in a held-out leg; window too small for N")
    s = s_value(*(leg.e for leg in legs))
    errors = [leg.stderr_e for leg in legs]
    stderr_s = None if None in errors else math.sqrt(sum(e ** 2 for e in errors))

    inf = _gamma_infimum(thetas, gammas)
    return SReport(
        s=s,
        gamma_inf=inf.gamma,
        bound_trivial=TRIVIAL_BOUND,
        bound_chsh=CHSH_BOUND,
        bound_lg=lg_bound(inf.gamma),
        flags=check_violations(s, inf.gamma),
        stderr_s=stderr_s,
        gamma_argmin=inf.theta,
        quad_angles=angles,
        s_select=s_select,
    )


def min_gamma(params: SimParams, thetas=None) -> GammaInfimum:
    """Minimum estimated coincidence frequency over a theta grid.

    The grid must cover [0, pi]; the grid minimum and its angle are reported.
    """
    if thetas is None:
        grid = _theta_grid(THETA_STEP)
    else:
        grid = np.asarray(sorted(float(t) for t in thetas))
        if any(not 0.0 <= t <= math.pi for t in grid):
            raise ValueError("theta grid must lie inside [0, pi]")
        if len(grid) < 2 or grid[0] > 1e-9 or grid[-1] < math.pi - 1e-9:
            raise ValueError("theta grid must cover [0, pi]")
    cells = ThetaEngine(params).block_counts_over(grid, [params.w_bins], 1)[0]
    gammas = np.array([estimate(CoincidenceCounts.from_cells(c, params.n_trials)).gamma
                       for c in cells])
    return _gamma_infimum(grid, gammas)
