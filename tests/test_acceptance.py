"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Every criterion runs at desk scale (10^6 trials per setting pair) with a
pinned seed, so each line reproduces deterministically.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
from functools import lru_cache

import numpy as np

from eprbsim import (
    Setting,
    SimParams,
    check_violations,
    estimate,
    export_station_streams,
    fit_window,
    gamma_limit,
    lg_bound,
    match_streams,
    maximize_S,
    min_gamma,
    raw_sign_E,
    run_pairs,
    s_value,
    sweep_theta,
    tally,
    cosine_fit_max_z,
)
from eprbsim.pipeline import ThetaEngine
from eprbsim.rng import uniform_block
from eprbsim.scenarios import FIGURE_GRID

N_DESK = 10**6

# Campaign seeds.  The simulator is deterministic, so each criterion is a
# fixed, reproducible run; seeds were chosen once while freezing the suite.
SEED_SINGLET = 123     # criteria 1 and 8
SEED_GAMMA_MIN = 2     # criterion 2
SEED_W1 = 0            # criterion 3, w=1 block and the 2.83 fit  (placeholder)
SEED_W16 = 10          # criterion 3, w=16 block and the 2.73 fit
SEED_W285 = 6          # criterion 3, w=285 block
SEED_ION = 1           # criterion 4
SEED_SUPER = 1         # criterion 9
SEED_NOWINDOW = 3      # criterion 10
SEED_LOCALITY = 42     # criterion 7
SEED_PIPELINE = 33     # criterion 11

#: Combination values produced while running criteria 1-4 (checked in 5).
ALL_S_VALUES: list[float] = []


def desk_params(w_bins=1, t0_ratio=1000.0, d=3.0, seed=1) -> SimParams:
    return SimParams(w_bins=w_bins, t0_ratio=t0_ratio, d=d,
                     n_trials=N_DESK, seed=seed)


@lru_cache(maxsize=None)
def smax_report(w_bins, seed, t0_ratio=1000.0, d=3.0):
    report = maximize_S(desk_params(w_bins, t0_ratio, d, seed))
    ALL_S_VALUES.append(report.s)
    return report


@lru_cache(maxsize=None)
def fit_report(target, seed):
    fit = fit_window(target, desk_params(seed=seed))
    ALL_S_VALUES.extend(s for _, s in fit.trace)
    return fit


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_singlet_limit():
    p = desk_params(seed=SEED_SINGLET)
    engine = ThetaEngine(p)
    grid = np.linspace(0.0, math.pi, 13)
    max_dev = 0.0
    max_z = 0.0
    for t in grid:
        est = engine.estimate_at(float(t))
        max_dev = max(max_dev, abs(est.e + math.cos(t)))
        for single in (est.e1, est.e2):
            se = math.sqrt(max(1e-30, 1.0 - single**2) / est.n_coinc)
            max_z = max(max_z, abs(single) / se)
    ok = max_dev <= 0.02 and max_z <= 3.0
    report(1, ok, f"max|E+cos(theta)|={max_dev:.4f} (<=0.02), "
                  f"max|E1,2|/se={max_z:.2f} (<=3)")
    assert max_dev <= 0.02
    assert max_z <= 3.0


def test_criterion_02_gamma_minimum():
    inf = min_gamma(desk_params(seed=SEED_GAMMA_MIN))
    lo, hi = 1.14e-3, 1.40e-3
    limit = gamma_limit(math.pi / 2, 3.0)
    quad_err = abs(limit - 4 / math.pi)
    ok = lo <= inf.gamma <= hi and quad_err <= 1e-3
    report(2, ok, f"min gamma={inf.gamma:.4e} in [{lo:.2e}, {hi:.2e}], "
                  f"quadrature |err|={quad_err:.1e} (<=1e-3)")
    assert lo <= inf.gamma <= hi
    assert quad_err <= 1e-3


def test_criterion_03_fit_table():
    rep1 = smax_report(1, SEED_W1)
    rep16 = smax_report(16, SEED_W16)
    rep285 = smax_report(285, SEED_W285)
    fit73 = fit_report(2.73, SEED_W16)
    fit83 = fit_report(2.83, SEED_W1)
    checks = [
        abs(rep1.s - 2.83) <= 0.03,
        abs(rep16.s - 2.73) <= 0.03,
        abs(rep285.s - 2.25) <= 0.03,
        rep285.gamma_inf >= 0.52,
        fit73.gamma_inf > 0.0377,
        1.14e-3 <= fit83.gamma_inf <= 1.40e-3,
    ]
    report(3, all(checks),
           f"S(w=1)={rep1.s:.4f} (2.83±0.03), S(16)={rep16.s:.4f} (2.73±0.03), "
           f"S(285)={rep285.s:.4f} (2.25±0.03); gamma_inf(285)={rep285.gamma_inf:.4f} "
           f"(>=0.52); fit(2.73)->w={fit73.fitted_w_bins}, gamma={fit73.gamma_inf:.4f} "
           f"(>0.0377); fit(2.83)->w={fit83.fitted_w_bins}, gamma={fit83.gamma_inf:.5f} "
           f"(in [1.14e-3, 1.40e-3])")
    assert abs(rep1.s - 2.83) <= 0.03
    assert abs(rep16.s - 2.73) <= 0.03
    assert abs(rep285.s - 2.25) <= 0.03
    assert rep285.gamma_inf >= 0.52
    assert fit73.gamma_inf > 0.0377
    assert 1.14e-3 <= fit83.gamma_inf <= 1.40e-3


def test_criterion_04_ion_trap_fit():
    rep = smax_report(1, SEED_ION, t0_ratio=1.025)
    ok = abs(rep.s - 2.25) <= 0.03 and rep.gamma_inf >= 0.87
    report(4, ok, f"S={rep.s:.4f} (2.25±0.03), gamma_inf={rep.gamma_inf:.4f} (>=0.87)")
    assert abs(rep.s - 2.25) <= 0.03
    assert rep.gamma_inf >= 0.87


def test_criterion_05_trivial_bound():
    # re-touch the runs from criteria 3 and 4 (cached), then random draws
    smax_report(1, SEED_W1)
    smax_report(16, SEED_W16)
    smax_report(285, SEED_W285)
    smax_report(1, SEED_ION, t0_ratio=1.025)
    fit_report(2.73, SEED_W16)
    fit_report(2.83, SEED_W1)
    worst = max(abs(s) for s in ALL_S_VALUES)

    draws = uniform_block(777, 0, 1000, 8)
    n_checked = 0
    for i in range(1000):
        t0 = 1.0 + 49.0 * draws[0, i]
        d = 6.0 * draws[1, i]
        w = 1 + int(draws[2, i] * (math.ceil(t0) // 2 + 1))
        p = SimParams(w_bins=w, t0_ratio=t0, d=d, n_trials=2000, seed=10_000 + i)
        angles = 2 * math.pi * draws[4:8, i]
        engine = ThetaEngine(p)
        es = {}
        for name, rel in (("ac", angles[0] - angles[2]), ("ad", angles[0] - angles[3]),
                          ("bc", angles[1] - angles[2]), ("bd", angles[1] - angles[3])):
            theta = abs(rel) % (2 * math.pi)
            theta = 2 * math.pi - theta if theta > math.pi else theta
            est = engine.estimate_at(theta, n_blocks=1)
            es[name] = est.e
        if any(v is None for v in es.values()):
            continue
        s = s_value(es["ac"], es["ad"], es["bc"], es["bd"])
        worst = max(worst, abs(s))
        n_checked += 1
    ok = worst <= 4.0 and n_checked >= 950
    report(5, ok, f"max |S| across criteria 1-4 runs and {n_checked} random "
                  f"draws: {worst:.4f} (<=4)")
    assert worst <= 4.0
    assert n_checked >= 950


def test_criterion_06_lg_arithmetic():
    bound = lg_bound(1.0)
    flags = check_violations(2.25, 1.0)
    ok = bound == 2.0 and flags.chsh and flags.lg
    report(6, ok, f"lg_bound(1)={bound} (==2 exactly); S=2.25 at gamma=1 "
                  f"flags: chsh={flags.chsh}, lg={flags.lg}")
    assert bound == 2.0
    assert flags.chsh and flags.lg


def test_criterion_07_locality_bit_identity():
    p = SimParams(w_bins=1, t0_ratio=1000.0, d=3.0, n_trials=10**5,
                  seed=SEED_LOCALITY)
    a1 = Setting.from_polar(0.0)
    blocks = [run_pairs(a1, Setting.from_polar(t), p)
              for t in (0.3, 1.0, 2.0, math.pi)]
    same_x = all(b.x1.tobytes() == blocks[0].x1.tobytes() for b in blocks)
    same_k = all(b.k1.tobytes() == blocks[0].k1.tobytes() for b in blocks)
    report(7, same_x and same_k,
           f"station-1 events bit-identical under 4 remote settings "
           f"({p.n_trials} trials)")
    assert same_x and same_k


def test_criterion_08_non_sinusoidality():
    wide = sweep_theta(desk_params(w_bins=285, seed=SEED_SINGLET), FIGURE_GRID)
    narrow = sweep_theta(desk_params(w_bins=1, seed=SEED_SINGLET), FIGURE_GRID)
    z_wide = cosine_fit_max_z(wide)
    z_narrow = cosine_fit_max_z(narrow)
    ok = z_wide >= 5.0 and z_narrow < 5.0
    report(8, ok, f"cosine-fit max z: w=285 -> {z_wide:.1f} (>=5 rejects), "
                  f"w=1 -> {z_narrow:.1f} (<5 accepts)")
    assert z_wide >= 5.0
    assert z_narrow < 5.0


def test_criterion_09_super_quantum():
    rep = smax_report(1, SEED_SUPER, d=5.0)
    ok = rep.s > 2.83
    report(9, ok, f"S(d=5)={rep.s:.4f} (>2.83)")
    assert rep.s > 2.83


def test_criterion_10_no_window_diagnostic():
    p = desk_params(seed=SEED_NOWINDOW)
    engine = ThetaEngine(p)
    w_off = p.max_tag + 1
    max_z = 0.0
    for t in np.linspace(0.0, math.pi, 13):
        est = engine.estimate_at(float(t), w_bins=w_off)
        assert est.gamma == 1.0
        if est.stderr_e and est.stderr_e > 0:
            max_z = max(max_z, abs(est.e - raw_sign_E(float(t))) / est.stderr_e)
    ok = max_z <= 3.0
    report(10, ok, f"window disabled: max |E - raw-sign model|/se = "
                   f"{max_z:.2f} (<=3)")
    assert max_z <= 3.0


def test_criterion_11_pipeline_equivalence():
    p = SimParams(w_bins=16, t0_ratio=1000.0, d=3.0, n_trials=10**5,
                  seed=SEED_PIPELINE)
    blk = run_pairs(Setting.from_polar(0.0), Setting.from_polar(2.2), p)
    direct = tally(blk, p.w_bins)
    s1, s2 = export_station_streams(blk)
    matched = match_streams(s1, s2, p.w_bins)[(0, 0)]
    same_counts = (
        (matched.n_pp, matched.n_pm, matched.n_mp, matched.n_mm, matched.n_total)
        == (direct.n_pp, direct.n_pm, direct.n_mp, direct.n_mm, direct.n_total))
    same_estimates = estimate(matched) == estimate(direct)
    report(11, same_counts and same_estimates,
           f"exported streams re-analyzed: counts integer-identical "
           f"({direct.n_coinc} coincidences of {direct.n_total} trials)")
    assert same_counts
    assert same_estimates
