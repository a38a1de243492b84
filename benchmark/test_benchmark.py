"""Tests of the benchmark's reference values, output checks and span recorder.

Run with ``python3 -m pytest benchmark/test_benchmark.py``.
"""

from __future__ import annotations

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import reference
import tracing

TABLE = reference.load_table()
SMALL_GRID = (600, 300)


def test_no_window_limit():
    # w = T0/tau: every tag pair coincides, so gamma = 1 and E is the raw sign law
    thetas = np.linspace(0.0, math.pi, 13)
    e, gamma = reference.curves((1000,), thetas, grid=SMALL_GRID)[1000]
    assert np.all(gamma == 1.0)
    np.testing.assert_allclose(e, -(1.0 - 2.0 * thetas / math.pi), atol=2e-3)


def test_small_window_limit():
    # gamma(pi/2) * T0/tau -> 4/pi for d = 3 as T0/tau grows at w = 1
    t0 = 1e4
    _, gamma = reference.curves((1,), [math.pi / 2], t0_ratio=t0, grid=(1200, 600))[1]
    assert gamma[0] * t0 == pytest.approx(4.0 / math.pi, rel=1e-3)


def test_coincident_share_by_enumeration():
    for m1, m2, w in [(1, 1, 1), (3, 7, 1), (7, 3, 2), (5, 5, 4), (4, 9, 20), (10, 2, 3)]:
        k1, k2 = np.meshgrid(np.arange(m1), np.arange(m2))
        brute = np.mean(np.abs(k1 - k2) < w)
        assert reference.coincident_share(m1, m2, w) == pytest.approx(brute, abs=1e-15)


@pytest.mark.parametrize("w, s_pi4, gamma_pi2", [
    (1, 2.8270, 0.001272), (16, None, 0.037734), (285, None, 0.519394)])
def test_table_matches_recorded_values(w, s_pi4, gamma_pi2):
    curve = TABLE[w]
    if s_pi4 is not None:
        assert abs(curve.s_at(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)) == \
            pytest.approx(s_pi4, abs=5e-4)
    # the recorded figures are rounded to the digits shown
    assert float(curve.gamma(math.pi / 2)) == pytest.approx(gamma_pi2, rel=5e-5, abs=5e-7)


def test_table_agrees_at_two_resolutions():
    import json
    summary = json.loads(reference.TABLE_PATH.read_text())["summary"]
    for w, row in summary.items():
        for key, fine in row["fine"].items():
            diff = abs(row["coarse"][key] - fine)
            assert diff <= 2e-4 and diff <= 1e-3 * abs(fine), (w, key)


# --- output checks: each passes a right output and rejects a perturbed one

def replace_ns(ns, **changes):
    return SimpleNamespace(**{**vars(ns), **changes})


def _smax_report(w=16, n=10**6):
    curve = TABLE[w]
    quad = (0.1, 1.6, 0.9, 2.4)
    g = curve.gamma_min()
    return SimpleNamespace(s=curve.s_at(*quad), stderr_s=0.03, quad_angles=quad,
                           gamma_inf=g, bound_lg=6.0 / g - 4.0), n, curve


def test_check_smax():
    rep, n, curve = _smax_report()
    assert checks.check_smax(rep, n, curve) == []
    assert checks.check_smax(replace_ns(rep, s=rep.s + 6.01 * rep.stderr_s), n, curve)
    assert checks.check_smax(replace_ns(rep, s=float("nan")), n, curve)
    sg = math.sqrt(rep.gamma_inf * (1 - rep.gamma_inf) / n)
    low = rep.gamma_inf - 7.5 * sg
    assert checks.check_smax(replace_ns(rep, gamma_inf=low, bound_lg=6.0 / low - 4.0),
                             n, curve)
    assert checks.check_smax(replace_ns(rep, bound_lg=rep.bound_lg + 1e-9), n, curve)


def _sweep_tables(n=10**6):
    thetas = np.linspace(0.0, math.pi, 37)
    tables = {}
    for w in (1, 16, 285):
        curve = TABLE[w]
        rows = []
        for t in thetas:
            nc = int(round(float(curve.gamma(t)) * n))
            rows.append((float(t), float(curve.e(t)), 0.01, nc / n, nc))
        tables[w] = rows
    return tables, n


def test_check_sweeps():
    tables, n = _sweep_tables()
    assert checks.check_sweeps(tables, n, TABLE) == []
    theta, e, se, g, nc = tables[16][18]
    bad = dict(tables)
    bad[16] = list(tables[16])
    bad[16][18] = (theta, e, se, g, nc + 1)  # one count off by one
    assert checks.check_sweeps(bad, n, TABLE)
    bad[16][18] = (theta, e + 6.01 * se, se, g, nc)
    assert checks.check_sweeps(bad, n, TABLE)
    bad[16][18] = (theta, e, se, g, tables[1][18][4] - 1)  # fewer than the smaller window
    assert checks.check_sweeps(bad, n, TABLE)


def _cells():
    tallies = {(0, 0): (10, 40, 45, 12), (0, 1): (40, 9, 11, 44),
               (1, 0): (11, 43, 39, 10), (1, 1): (12, 41, 44, 9)}
    rows = {}
    for key, (pp, pm, mp, mm) in tallies.items():
        nc = pp + pm + mp + mm
        rows[key] = ((pp + mm - pm - mp) / nc, 0.05, nc / 500, nc, 500)
    events = {0: 500, 1: 500}
    return rows, tallies, events


def test_check_cells():
    rows, tallies, events = _cells()
    assert checks.check_cells(rows, tallies, tallies, events, events) == []
    off = dict(tallies)
    off[(1, 0)] = (11, 43, 39, 11)  # one tally count off by one
    assert checks.check_cells(rows, off, tallies, events, events)
    halved = dict(rows)
    halved[(0, 1)] = rows[(0, 1)][:4] + (250,)
    assert checks.check_cells(halved, tallies, tallies, events, events)


def test_check_s_best():
    curve = TABLE[285]
    a, b = (0.0, math.pi / 2), (math.pi / 4, 3 * math.pi / 4)
    e = [float(curve.e(a[i] - b[j])) for i in (0, 1) for j in (0, 1)]
    s_ref = max(checks.chsh_placements(*e), key=abs)
    cells = {(i, j): (e[2 * i + j], 0.002) for i in (0, 1) for j in (0, 1)}
    assert checks.check_s_best(s_ref, cells, curve, a, b) == []
    err = math.sqrt(4 * 0.002 ** 2)
    assert checks.check_s_best(s_ref + math.copysign(6.01 * err, s_ref), cells, curve, a, b)


# --- span recorder

def test_self_times_partition_the_root():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        traced_leaf()
        time.sleep(0.001)
        traced_leaf()

    traced_leaf = tracer.wrap("rng.draw", leaf, lambda a, k, r: {"trials": 5})
    traced_middle = tracer.wrap("pipeline.ensemble", middle,
                                lambda a, k, r: {"key": [1, 0, 5, 1000.0, 3.0]})
    root = tracer.open("bench.op")
    traced_middle()
    traced_middle()
    tracer.close(root)
    m = tracing.op_metrics(tracer.spans, root, tracing.span_cost_s(100))
    wall = root["end"] - root["start"]
    assert m["trace.self_sum_s"] == pytest.approx(wall, rel=1e-9)
    assert sum(m[f"{layer}.layer_self_s"] for layer in tracing.LAYERS) == \
        pytest.approx(wall, rel=1e-9)
    assert m["rng.trials"] == 20
    assert m["pipeline.ensembles"] == 2
    assert m["pipeline.ensemble_useful_ratio"] == 0.5
    assert m["rng.draw_s"] >= 4 * 0.002


def test_install_wraps_and_restores():
    ns = SimpleNamespace(f=lambda x: x + 1)
    original = ns.f
    tracer = tracing.Tracer()
    missing = tracer.install([(ns, "f", "cli.main", None), (ns, "gone", "cli.x", None)])
    assert missing and ns.f is not original
    assert ns.f(1) == 2 and tracer.spans[0]["name"] == "cli.main"
    tracer.uninstall()
    assert ns.f is original


def test_benchmark_json_names_what_run_reports():
    import json
    import run
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"op_s", "setup_s", "peak_rss_mb"}
    traced = tracing.metric_names() + ["proc.cpu_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run._unit(name) for name in traced}


def test_parse_analyze():
    import run
    text = ("kind,setting_a,setting_b,e,stderr_e,gamma,n_coinc,n_total\n"
            "cell,0,0,-0.5625,0.0015,0.299,149500,500000\n"
            "cell,0,1,,,0,0,500000\n"
            "gamma_min_pairs = 0\n"
            "s_best = -2.25\n")
    rows, s_best = run._parse_analyze(text)
    assert rows == {(0, 0): (-0.5625, 0.0015, 0.299, 149500, 500000),
                    (0, 1): (None, None, 0.0, 0, 500000)}
    assert s_best == -2.25
