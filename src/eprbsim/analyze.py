"""Analysis of station-resolved time-tag data, simulated or external.

Events are paired by greedy nearest-tag matching, tallied per setting-pair
cell, and summarized as correlations, coincidence fractions and bound
checks.  Two coincidence-fraction summaries are reported side by side
because they answer different questions: the minimum over setting pairs
(the quantity entering the post-selection bound) and the total coincidence
fraction summed over all pairs (what a pooled experiment-wide rate gives).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coincidence import CoincidenceCounts, CorrelationEstimate, estimate, match_streams
from .errors import TtagFormatError
from .inequalities import ViolationFlags, check_violations, lg_bound, s_value
from .rng import uniform_block
from .ttag_io import EventStream, read_events


@dataclass(frozen=True)
class AnalysisReport:
    """Per-cell estimates and the derived summary quantities.

    ``gamma_min_pairs`` is the smallest per-cell coincidence fraction;
    ``gamma_total_fraction`` is the summed coincidence count over the summed
    per-cell opportunities.  ``s_by_sign`` maps each placement of the minus
    sign (keyed by the cell carrying it, ``"00" | "01" | "10" | "11"``) to
    its combination value; ``s_best`` is the largest in magnitude.  Those
    summary fields are only set for a 2 x 2 settings table in which every
    cell has an estimate; otherwise they are None.
    """

    cells: dict[tuple[int, int], CorrelationEstimate]
    counts: dict[tuple[int, int], CoincidenceCounts]
    gamma_min_pairs: float
    gamma_total_fraction: float
    s_by_sign: dict[str, float] | None
    s_best: float | None
    bound_lg: float | None
    flags: ViolationFlags | None


def analyze_streams(stream_a: EventStream, stream_b: EventStream,
                    n_settings_a: int, n_settings_b: int,
                    w_bins: int) -> AnalysisReport:
    """Match, tally and summarize two station streams."""
    for name, stream, limit in (("A", stream_a, n_settings_a),
                                ("B", stream_b, n_settings_b)):
        if len(stream) and int(stream.setting_index.max()) >= limit:
            raise TtagFormatError(
                f"station {name}: setting index "
                f"{int(stream.setting_index.max())} outside table of size {limit}")

    counts = match_streams(stream_a, stream_b, w_bins)
    cells = {key: estimate(c) for key, c in counts.items()}

    gammas = {key: est.gamma for key, est in cells.items()}
    gamma_min = min(gammas.values()) if gammas else 0.0
    total_coinc = sum(c.n_coinc for c in counts.values())
    total_opp = sum(c.n_total for c in counts.values())
    gamma_total = total_coinc / total_opp if total_opp else 0.0

    s_by_sign = s_best = bound = flags = None
    if n_settings_a == 2 and n_settings_b == 2:
        e = {key: cells[key].e for key in ((0, 0), (0, 1), (1, 0), (1, 1))
             if key in cells}  # a setting pair with no events has no cell
        if len(e) == 4 and all(v is not None for v in e.values()):
            e00, e01, e10, e11 = e[(0, 0)], e[(0, 1)], e[(1, 0)], e[(1, 1)]
            s_by_sign = {
                "00": s_value(e01, e00, e11, e10),
                "01": s_value(e00, e01, e10, e11),
                "10": s_value(e11, e10, e01, e00),
                "11": s_value(e10, e11, e00, e01),
            }
            s_best = max(s_by_sign.values(), key=abs)
            if gamma_min > 0.0:
                bound = lg_bound(gamma_min)
                flags = check_violations(s_best, gamma_min)
    return AnalysisReport(
        cells=cells, counts=counts,
        gamma_min_pairs=gamma_min, gamma_total_fraction=gamma_total,
        s_by_sign=s_by_sign, s_best=s_best, bound_lg=bound, flags=flags,
    )


def analyze_external(path_a, path_b, settings_a, settings_b,
                     w_bins: int) -> AnalysisReport:
    """Read two TTAG-CSV files and analyze them against the settings tables.

    ``settings_a`` and ``settings_b`` list each station's planar setting
    angles; file setting indices must stay inside those tables.
    """
    stream_a = read_events(path_a)
    stream_b = read_events(path_b)
    return analyze_streams(stream_a, stream_b,
                           n_settings_a=len(list(settings_a)),
                           n_settings_b=len(list(settings_b)),
                           w_bins=w_bins)


def synthetic_singlet_streams(angles_a, angles_b, n_pairs: int,
                              seed: int) -> tuple[EventStream, EventStream]:
    """Generate ideal-singlet time-tag streams for validation and demos.

    Each emission picks one setting per station uniformly, draws outcomes
    with the singlet statistics ``E = -cos(angle difference)`` and equal
    single-particle marginals, and stamps both events of emission ``n`` with
    the tag ``4 * n``, so every pair is coincident.  Deterministic in ``seed``.
    """
    angles_a = [float(t) for t in angles_a]
    angles_b = [float(t) for t in angles_b]
    u = uniform_block(seed, 0, n_pairs, 4)
    ia = np.minimum((u[0] * len(angles_a)).astype(np.int64), len(angles_a) - 1)
    ib = np.minimum((u[1] * len(angles_b)).astype(np.int64), len(angles_b) - 1)
    x1 = np.where(u[2] < 0.5, 1, -1).astype(np.int64)
    diff = np.asarray(angles_a)[ia] - np.asarray(angles_b)[ib]
    p_same = 0.5 * (1.0 - np.cos(diff))  # P(x1 * x2 = +1) for E = -cos
    x2 = np.where(u[3] < p_same, x1, -x1).astype(np.int64)
    k = np.arange(n_pairs, dtype=np.int64) * 4
    return EventStream(k, ia, x1), EventStream(k, ib, x2)


def report_rows(report: AnalysisReport):
    """Flatten a report into table rows (cell rows then summary rows)."""
    rows = []
    for (ia, ib), est in sorted(report.cells.items()):
        c = report.counts[(ia, ib)]
        rows.append(("cell", ia, ib, est.e, est.stderr_e, est.gamma,
                     c.n_coinc, c.n_total))
    return rows
