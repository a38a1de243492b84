"""Named reproduction runs: theta sweeps, window fitting, artifact bundles.

Every scenario writes deterministic CSV tables plus a manifest with content
digests, so a rerun with the same parameters reproduces the tables
hash-identically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .analyze import REPORT_COLUMNS, analyze_streams, report_rows, synthetic_singlet_streams
from .coincidence import CoincidenceCounts, estimate
from .errors import FitError, UsageError
from .inequalities import THETA_STEP, SReport, maximize_S
from .model import SimParams
from .oracles import gamma_limit, smax_quantum
from .pipeline import ThetaEngine
from .ttag_io import (
    RunManifest,
    file_digest,
    now_utc,
    write_events,
    write_manifest,
    write_results_csv,
)

#: Model parameters and seed of scenario runs and the command line, unless overridden.
DEFAULT_PARAMS = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**6, seed=1)

#: theta grid used by the figure scenarios: 0 to pi in steps of pi/36.
FIGURE_GRID = np.linspace(0.0, math.pi, 37)

SCENARIO_IDS = ("fig1", "fig2", "fits", "oracle-check", "weihs-compare")


@dataclass(frozen=True)
class SweepRow:
    theta: float
    e: float | None
    stderr_e: float | None
    gamma: float
    n_coinc: int


@dataclass(frozen=True)
class SweepResult:
    """One theta sweep at fixed parameters: one row per grid angle."""

    rows: tuple[SweepRow, ...]
    params: SimParams


#: Columns of a sweep table, one row per grid angle from :func:`sweep_rows`.
SWEEP_COLUMNS = ("theta", "e", "stderr_e", "gamma", "n_coinc")


def sweep_rows(sweep: SweepResult) -> list[list]:
    """The sweep's table rows, in :data:`SWEEP_COLUMNS` order."""
    return [[r.theta, r.e, r.stderr_e, r.gamma, r.n_coinc] for r in sweep.rows]


def _window_sweeps(params: SimParams, windows, thetas) -> tuple[SweepResult, ...]:
    """One sweep per distinct window, in first-seen order, all over one ensemble."""
    grid = [float(t) for t in thetas]
    if any(not 0.0 <= t <= math.pi for t in grid):
        raise ValueError("theta grid must lie inside [0, pi]")
    if sorted(grid) != grid or len(set(grid)) != len(grid):
        raise ValueError("theta grid must be strictly increasing")
    windows = list(dict.fromkeys(windows))
    sweeps = []
    for w, cells in zip(windows, ThetaEngine(params).block_counts_over(grid, windows)):
        rows = []
        for t, blocks in zip(grid, cells):
            est = estimate(CoincidenceCounts.from_cells(blocks, params.n_trials), blocks)
            rows.append(SweepRow(theta=t, e=est.e, stderr_e=est.stderr_e,
                                 gamma=est.gamma, n_coinc=est.n_coinc))
        sweeps.append(SweepResult(rows=tuple(rows), params=replace(params, w_bins=w)))
    return tuple(sweeps)


def sweep_theta(params: SimParams, thetas=FIGURE_GRID) -> SweepResult:
    """Estimate correlations over a theta grid with trials shared across points.

    Station 1 measures along z-hat; station 2 along z-hat rotated by theta in
    the xz-plane.
    """
    return _window_sweeps(params, [params.w_bins], thetas)[0]


def cosine_fit_max_z(sweep: SweepResult) -> float:
    """Largest weighted residual of the best single-cosine fit.

    Fits ``A*cos(theta) + B`` by weighted least squares (weights from the
    per-point standard errors) and returns ``max |residual| / stderr``; large
    values reject the single-sinusoid description.  Zero-error points
    (exact endpoints) are excluded from both fit and scan.
    """
    mask = [r.e is not None and r.stderr_e and r.stderr_e > 0 for r in sweep.rows]
    thetas = np.array([r.theta for r, m in zip(sweep.rows, mask) if m])
    es = np.array([r.e for r, m in zip(sweep.rows, mask) if m])
    ses = np.array([r.stderr_e for r, m in zip(sweep.rows, mask) if m])
    if len(thetas) < 3:
        raise ValueError("need at least three usable points to fit")
    design = np.column_stack([np.cos(thetas), np.ones_like(thetas)])
    wd = design / ses[:, None]
    coef, *_ = np.linalg.lstsq(wd.T @ wd, wd.T @ (es / ses), rcond=None)
    resid = es - design @ coef
    return float(np.max(np.abs(resid) / ses))


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting the window to a target combination value."""

    target_smax: float
    fitted_w_bins: int
    achieved_smax: float
    gamma_inf: float
    iterations: int
    trace: tuple[tuple[int, float], ...] = ()


def fit_window(target_smax: float, params: SimParams, tolerance: float = 0.01,
               theta_step: float = THETA_STEP) -> FitResult:
    """Find the integer window reproducing a target combination value.

    Integer bisection over ``[1, ceil(t0_ratio)]`` at the params seed on the
    held-out combination of :func:`maximize_S`, which falls as the window
    grows in the exact curves.  A target is outside the achievable range,
    and raises :class:`FitError` naming it, only when it lies beyond
    ``S(1)`` or ``S(ceil(t0_ratio))`` by more than ``tolerance`` plus 3
    sigma.  Returns the smallest bracket member within ``tolerance``;
    failing that, the bracket member closer to the target, provided it lies
    within ``hypot(tolerance, stderr_s)`` of it.
    """
    if not math.isfinite(target_smax):
        raise ValueError(f"target_smax must be finite, got {target_smax!r}")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    w_max = params.max_tag
    reports: dict[int, SReport] = {}

    def s_at(w: int) -> float:
        if w not in reports:
            reports[w] = maximize_S(replace(params, w_bins=w), theta_step)
        return reports[w].s

    def result(w: int) -> FitResult:
        rep = reports[w]
        trace = tuple(sorted((wi, r.s) for wi, r in reports.items()))
        return FitResult(target_smax=target_smax, fitted_w_bins=w,
                         achieved_smax=rep.s, gamma_inf=rep.gamma_inf,
                         iterations=len(reports), trace=trace)

    def sigma(w: int) -> float:
        return reports[w].stderr_s or 0.0

    s_lo = s_at(1)
    if s_lo + 3.0 * sigma(1) < target_smax - tolerance:
        raise FitError(
            f"target {target_smax} above achievable range: max combination "
            f"{s_lo:.4f} ± {sigma(1):.4f} at w_bins=1")
    if abs(s_lo - target_smax) <= tolerance:
        return result(1)
    if w_max == 1:
        raise FitError(f"target {target_smax} unreachable with w_bins fixed at 1")
    s_hi = s_at(w_max)
    if s_hi - 3.0 * sigma(w_max) > target_smax + tolerance:
        raise FitError(
            f"target {target_smax} below achievable range: combination "
            f"{s_hi:.4f} ± {sigma(w_max):.4f} at w_bins={w_max}")
    lo, hi = 1, w_max
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if s_at(mid) >= target_smax:
            lo = mid
        else:
            hi = mid
    candidates = [w for w in (lo, hi) if abs(s_at(w) - target_smax) <= tolerance]
    if candidates:
        return result(min(candidates))
    closer = min((lo, hi), key=lambda w: abs(s_at(w) - target_smax))
    if abs(s_at(closer) - target_smax) <= math.hypot(tolerance, sigma(closer)):
        return result(closer)
    raise FitError(
        f"no bracket member within tolerance {tolerance}: "
        f"S({lo})={s_at(lo):.4f}, S({hi})={s_at(hi):.4f} vs target {target_smax}")


# ---------------------------------------------------------------------------
# scenario bundles

def _base_params(overrides: dict | None) -> SimParams:
    return replace(DEFAULT_PARAMS, **(overrides or {}))


def _scenario_fig1(params: SimParams, out: Path) -> dict[str, Path]:
    files = {}
    for sweep in _window_sweeps(params, (1, 16, 285), FIGURE_GRID):
        path = out / f"gamma_w{sweep.params.w_bins}.csv"
        write_results_csv(path, SWEEP_COLUMNS, sweep_rows(sweep))
        files[path.name] = path
    return files


def _scenario_fig2(params: SimParams, out: Path) -> dict[str, Path]:
    files = {}
    for sweep in _window_sweeps(params, (1, 16, 285), FIGURE_GRID):
        path = out / f"e_w{sweep.params.w_bins}.csv"
        write_results_csv(path, (*SWEEP_COLUMNS, "e_singlet"),
                          [row + [-math.cos(row[0])] for row in sweep_rows(sweep)])
        files[path.name] = path
    return files


def _scenario_fits(params: SimParams, out: Path) -> dict[str, Path]:
    targets = (2.83, 2.73, 2.25)
    rows = []
    for target in targets:
        fit = fit_window(target, params)
        rows.append([fit.target_smax, fit.fitted_w_bins, fit.achieved_smax,
                     fit.gamma_inf, fit.iterations])
    path = out / "fits.csv"
    write_results_csv(
        path, ["target_smax", "fitted_w_bins", "achieved_smax", "gamma_inf",
               "iterations"], rows)
    return {path.name: path}


def _scenario_oracle_check(params: SimParams, out: Path) -> dict[str, Path]:
    grid = np.linspace(math.pi / 6, 5 * math.pi / 6, 9)
    rows = []
    for t, cells in zip(grid, ThetaEngine(params).block_counts_over(grid, [1], 1)[0]):
        limit = gamma_limit(float(t), params.d)
        gamma = estimate(CoincidenceCounts.from_cells(cells, params.n_trials)).gamma
        rows.append([float(t), limit, gamma * params.t0_ratio, gamma * params.t0_ratio - limit])
    path = out / "oracle_check.csv"
    write_results_csv(
        path, ["theta", "limit_coeff", "sim_gamma_t0", "difference"], rows)
    return {path.name: path}


def _scenario_weihs_compare(params: SimParams, out: Path) -> dict[str, Path]:
    qm = smax_quantum()
    aa, ab, ac, ad = qm.angles
    n_pairs = min(params.n_trials, 4 * 10**5)
    stream_a, stream_b = synthetic_singlet_streams(
        [aa, ab], [ac, ad], n_pairs=n_pairs, seed=params.seed)
    file_a, file_b = out / "station_a.csv", out / "station_b.csv"
    write_events(stream_a, file_a)
    write_events(stream_b, file_b)
    report = analyze_streams(stream_a, stream_b, 2, 2, w_bins=params.w_bins)

    cells_path = out / "analysis_cells.csv"
    write_results_csv(cells_path, REPORT_COLUMNS, report_rows(report))
    summary_path = out / "analysis_summary.csv"
    summary_rows = [
        ["gamma_min_pairs", report.gamma_min_pairs],
        ["gamma_total_fraction", report.gamma_total_fraction],
        ["s_best", report.s_best],
        ["s_quantum", qm.value],
        ["bound_lg", report.bound_lg],
        ["flag_chsh", int(report.flags.chsh) if report.flags else None],
        ["flag_lg", int(report.flags.lg) if report.flags else None],
    ]
    write_results_csv(summary_path, ["quantity", "value"], summary_rows)
    return {file_a.name: file_a, file_b.name: file_b,
            cells_path.name: cells_path, summary_path.name: summary_path}


_RUNNERS = {
    "fig1": _scenario_fig1,
    "fig2": _scenario_fig2,
    "fits": _scenario_fits,
    "oracle-check": _scenario_oracle_check,
    "weihs-compare": _scenario_weihs_compare,
}


@dataclass(frozen=True)
class ScenarioRun:
    name: str
    out_dir: Path
    files: tuple[str, ...]
    manifest_path: Path
    elapsed_s: float


def run_scenario(name: str, out_dir, overrides: dict | None = None) -> ScenarioRun:
    """Run a named scenario, writing its tables and manifest under ``out_dir``."""
    if name not in _RUNNERS:
        raise UsageError(
            f"unknown scenario {name!r}; valid ids: {', '.join(SCENARIO_IDS)}")
    t0 = time.time()
    params = _base_params(overrides)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = _RUNNERS[name](params, out)
    digests = {fname: file_digest(path) for fname, path in sorted(files.items())}
    manifest = RunManifest(
        params={"w_bins": params.w_bins, "t0_ratio": params.t0_ratio,
                "d": params.d, "n_trials": params.n_trials, "seed": params.seed},
        scenario=name,
        tool_version=f"eprbsim {_pkg_version}",
        created_at=now_utc(),
        output_digests=digests,
    )
    manifest_path = out / "manifest.txt"
    write_manifest(manifest, manifest_path)
    return ScenarioRun(name=name, out_dir=out, files=tuple(sorted(digests)),
                       manifest_path=manifest_path, elapsed_s=time.time() - t0)
