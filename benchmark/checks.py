"""Output checks of the benchmark's operations.

Each check takes the program's outputs as plain values and the reference
values from :mod:`reference`, and returns the list of problems it found
(empty when the outputs are right).  Sampled figures are compared with their
reference within ``Z`` standard errors.  A run compares a few hundred sampled
figures and the error estimates are themselves sampled (block jackknife), so
``Z`` is wide enough that a correct program fails no check in thousands of runs.
"""

from __future__ import annotations

import math

#: standard errors allowed between a sampled figure and its reference
Z = 6.0
#: the settings search reports the grid minimum of gamma on the ensemble that
#: chose it, which sits 1.6 to 3.2 binomial errors low at w = 1 (seeds 0-9),
#: so its band is one error wider than Z below the reference
Z_GAMMA_LOW = 7.0


def _within(value, ref, err) -> bool:
    return abs(value - ref) <= err  # False for NaN


def check_smax(rep, n_trials: int, curve) -> list[str]:
    """A settings-search report at one operating point.

    ``rep`` has ``s``, ``stderr_s``, ``quad_angles``, ``gamma_inf`` and
    ``bound_lg``; ``curve`` is the reference curve of its window.
    """
    problems = []
    s_ref = curve.s_at(*rep.quad_angles)
    if not _within(rep.s, s_ref, Z * rep.stderr_s):
        problems.append(f"held-out S {rep.s:.5f} is not within {Z} x {rep.stderr_s:.5f} "
                        f"of the reference {s_ref:.5f} at the chosen angles")
    g = curve.gamma_min()
    sg = math.sqrt(g * (1.0 - g) / n_trials)
    if not g - Z_GAMMA_LOW * sg <= rep.gamma_inf <= g + Z * sg:
        problems.append(f"gamma_inf {rep.gamma_inf:.6g} outside the binomial band of the "
                        f"reference minimum {g:.6g} (error {sg:.3g})")
    if rep.bound_lg != 6.0 / rep.gamma_inf - 4.0:
        problems.append(f"bound_lg {rep.bound_lg!r} is not 6/gamma_inf - 4")
    if not abs(rep.s) <= 4.0:
        problems.append(f"|S| = {abs(rep.s)} exceeds 4")
    return problems


def check_sweeps(tables: dict[int, list[tuple]], n_trials: int, curves) -> list[str]:
    """Figure tables of one ensemble at several windows.

    ``tables[w]`` holds rows ``(theta, e, stderr_e, gamma, n_coinc)``.
    """
    problems = []
    windows = sorted(tables)
    thetas = [row[0] for row in tables[windows[0]]]
    for w in windows:
        if [row[0] for row in tables[w]] != thetas:
            problems.append(f"w={w}: angle column differs from w={windows[0]}")
            return problems
    for i, theta in enumerate(thetas):
        counts = [tables[w][i][4] for w in windows]
        if counts != sorted(counts):
            problems.append(f"theta={theta:.4f}: n_coinc {counts} decreases as the window "
                            f"grows over {windows}")
    for w in windows:
        curve = curves[w]
        for theta, e, stderr_e, gamma, n_coinc in tables[w]:
            if gamma != n_coinc / n_trials:
                problems.append(f"w={w} theta={theta:.4f}: gamma {gamma!r} is not "
                                f"n_coinc/N = {n_coinc}/{n_trials}")
            g_ref = float(curve.gamma(theta))
            sg = math.sqrt(g_ref * (1.0 - g_ref) / n_trials)
            if not _within(gamma, g_ref, Z * sg):
                problems.append(f"w={w} theta={theta:.4f}: gamma {gamma:.6g} vs reference "
                                f"{g_ref:.6g} (error {sg:.3g})")
            e_ref = float(curve.e(theta))
            if e is None or not _within(e, e_ref, Z * stderr_e + 1e-9):
                problems.append(f"w={w} theta={theta:.4f}: E {e} vs reference {e_ref:.6f} "
                                f"(error {stderr_e})")
    return problems


def chsh_placements(e00: float, e01: float, e10: float, e11: float) -> list[float]:
    """The combination for each placement of the minus sign on one of four cells."""
    total = e00 + e01 + e10 + e11
    return [total - 2.0 * e for e in (e00, e01, e10, e11)]


def check_cells(rows: dict, counts: dict, tallies: dict, events_a: dict,
                events_b: dict) -> list[str]:
    """Per-cell analysis of two station files of a 2 x 2 settings table.

    ``rows`` maps a cell ``(i, j)`` to its row ``(e, stderr_e, gamma,
    n_coinc, n_total)``.  ``counts`` and ``tallies`` map a cell to its four
    coincidence counts ``(n_pp, n_pm, n_mp, n_mm)``, from the analysis and
    from tallying the cell's trial block.  ``events_a``/``events_b`` count
    each station's events per setting index.
    """
    problems = []
    if sorted(rows) != sorted(tallies):
        return [f"cells {sorted(rows)} analyzed, {sorted(tallies)} expected"]
    for key in sorted(tallies):
        if tuple(counts[key]) != tuple(tallies[key]):
            problems.append(f"cell {key}: counts {tuple(counts[key])} but tally() "
                            f"of its block gives {tuple(tallies[key])}")
        opportunities = min(events_a.get(key[0], 0), events_b.get(key[1], 0))
        if rows[key][4] != opportunities:
            problems.append(f"cell {key}: n_total {rows[key][4]} but the stations "
                            f"hold min({events_a.get(key[0], 0)}, "
                            f"{events_b.get(key[1], 0)}) events at those settings")
    return problems


def check_s_best(s_best: float, cells: dict, curve, angles_a, angles_b) -> list[str]:
    """``|s_best|`` of a 2 x 2 table against the reference at the same settings.

    ``cells`` maps ``(i, j)`` to ``(e, stderr_e)``.
    """
    ref_e = [float(curve.e(angles_a[i] - angles_b[j])) for i in (0, 1) for j in (0, 1)]
    s_ref = max(abs(s) for s in chsh_placements(*ref_e))
    err = math.sqrt(sum(se ** 2 for _, se in cells.values()))
    if not _within(abs(s_best), s_ref, Z * err):
        return [f"|s_best| {abs(s_best):.5f} is not within {Z} x {err:.5f} of the "
                f"reference {s_ref:.5f}"]
    return []
