"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 runtime failure.  A usage error is a
bad command line or config file, or any input the library refuses with a
ValueError; a runtime failure is an EprbError, OSError or ArithmeticError.
Every numeric option may also come from a flat ``key = value`` config file
(``--config``); explicit flags override the config, the config overrides
built-in defaults.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .analyze import REPORT_COLUMNS, analyze_external, report_rows
from .coincidence import estimate_block, singles_means
from .errors import EprbError, UsageError
from .inequalities import THETA_STEP, maximize_S
from .model import Setting, SimParams, check_window, run_pairs
from .oracles import gamma_limit, quantum_E, raw_sign_E
from .scenarios import (
    DEFAULT_PARAMS,
    SCENARIO_IDS,
    SWEEP_COLUMNS,
    fit_window,
    run_scenario,
    sweep_rows,
    sweep_theta,
)
from .ttag_io import (
    export_station_streams,
    format_real,
    parse_config,
    results_csv,
    write_events,
    write_results_csv,
)

_DEFAULTS = {
    "d": DEFAULT_PARAMS.d,
    "t0_ratio": DEFAULT_PARAMS.t0_ratio,
    "w_bins": DEFAULT_PARAMS.w_bins,
    "n": DEFAULT_PARAMS.n_trials,
    "seed": DEFAULT_PARAMS.seed,
    "theta": math.pi / 2,
    "theta_grid": f"0:{math.pi:.17g}:37",
    "tolerance": 0.01,
    "theta_step": THETA_STEP,
}

_CASTS = {
    "d": float, "t0_ratio": float, "w_bins": int, "n": int, "seed": int,
    "theta": float, "tolerance": float, "theta_step": float,
    "theta_grid": str, "target": float,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exceptions."""

    def error(self, message):
        raise UsageError(message)


def _add_param_flags(p: _Parser, windowed: bool = True):
    p.add_argument("--d", type=float, default=None, help="delay exponent")
    p.add_argument("--t0-ratio", dest="t0_ratio", type=float, default=None,
                   help="maximum delay over tag resolution (T0/tau)")
    if windowed:
        p.add_argument("--w-bins", dest="w_bins", type=int, default=None,
                       help="coincidence window over tag resolution (W/tau)")
    p.add_argument("--n", type=int, default=None, help="number of trials")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--config", default=None,
                   help="flat key = value config file (flags override it)")


def _resolve(args, key):
    """Flag > config file > default, per option."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    config = getattr(args, "_config_values", {})
    if key in config:
        try:
            return _CASTS.get(key, str)(config[key])
        except ValueError:
            raise UsageError(f"config value for {key!r} is not a valid "
                             f"{_CASTS.get(key, str).__name__}") from None
    if key in _DEFAULTS:
        return _DEFAULTS[key]
    raise UsageError(f"missing required option --{key.replace('_', '-')}")


def _params_from(args, windowed: bool = True) -> SimParams:
    return SimParams(_resolve(args, "w_bins") if windowed else 1,
                     _resolve(args, "t0_ratio"), _resolve(args, "d"),
                     _resolve(args, "n"), _resolve(args, "seed"))


def _parse_grid(spec: str):
    """Parse 'start:stop:count' into a list of angles."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad theta grid {spec!r}; expected start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"bad theta grid {spec!r}") from None
    if count < 2 or stop <= start:
        raise UsageError("theta grid needs stop > start and count >= 2")
    step = (stop - start) / (count - 1)
    # the last point is ``stop`` itself: ``start + (count - 1) * step`` may miss it by an ulp
    grid = [start + i * step for i in range(count - 1)] + [stop]
    if not all(0.0 <= t <= math.pi for t in grid):
        raise UsageError("theta grid must lie inside [0, pi]")
    return grid


def _parse_angles(spec: str):
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"bad angle list {spec!r}") from None


def _emit(pairs):
    for key, value in pairs:
        if value is None:
            print(f"{key} = undefined")
        elif isinstance(value, float):
            print(f"{key} = {format_real(value)}")
        else:
            print(f"{key} = {value}")


def _table(columns, rows, out_dir=None, name=None) -> None:
    """Write the results table to ``out_dir/name``, or print it without ``out_dir``."""
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_results_csv(out / name, columns, rows)
        print(f"wrote {out / name}")
    else:
        print(results_csv(columns, rows), end="")


def _cmd_simulate(args) -> int:
    params = _params_from(args)
    theta = _resolve(args, "theta")
    a, b = Setting.from_polar(0.0), Setting.from_polar(theta)
    block = run_pairs(a, b, params, keep_hidden=bool(args.debug_hidden))
    streams = export_station_streams(block) if args.out else None
    est = estimate_block(block, params.w_bins)
    m1, m2 = singles_means(block)
    _emit([
        ("theta", theta), ("e", est.e), ("stderr_e", est.stderr_e),
        ("e1", est.e1), ("e2", est.e2), ("gamma", est.gamma),
        ("n_coinc", est.n_coinc), ("n_total", params.n_trials),
        ("e1_all_trials", m1), ("e2_all_trials", m2),
        ("e_singlet", quantum_E(a, b)),
    ])
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_events(streams[0], out / "station_1.csv")
        write_events(streams[1], out / "station_2.csv")
        write_results_csv(out / "estimate.csv",
                          ["theta", "e", "stderr_e", "e1", "e2", "gamma", "n_coinc"],
                          [[theta, est.e, est.stderr_e, est.e1, est.e2,
                            est.gamma, est.n_coinc]])
        if args.debug_hidden:
            sx, sy, sz, l1, l2 = block.hidden
            write_results_csv(
                out / "hidden.csv",
                ["index", "sx", "sy", "sz", "lambda1", "lambda2"],
                ([i, sx[i], sy[i], sz[i], l1[i], l2[i]] for i in range(len(block))))
    return 0


def _cmd_sweep(args) -> int:
    params = _params_from(args)
    grid = _parse_grid(_resolve(args, "theta_grid"))
    _table(SWEEP_COLUMNS, sweep_rows(sweep_theta(params, grid)), args.out, "sweep.csv")
    return 0


def _cmd_smax(args) -> int:
    params = _params_from(args)
    report = maximize_S(params, _resolve(args, "theta_step"))
    a, b, c, d = report.quad_angles
    _emit([
        ("s_max", report.s), ("stderr_s", report.stderr_s),
        ("angle_a", a), ("angle_b", b), ("angle_c", c), ("angle_d", d),
        ("gamma_inf", report.gamma_inf), ("gamma_argmin", report.gamma_argmin),
        ("bound_trivial", report.bound_trivial), ("bound_chsh", report.bound_chsh),
        ("bound_lg", report.bound_lg),
        ("exceeds_chsh", report.flags.chsh), ("exceeds_lg", report.flags.lg),
        ("exceeds_quantum", report.flags.super_quantum),
    ])
    return 0


def _cmd_fit(args) -> int:
    params = _params_from(args, windowed=False)
    fit = fit_window(_resolve(args, "target"), params,
                     tolerance=_resolve(args, "tolerance"))
    _emit([
        ("target_smax", fit.target_smax), ("fitted_w_bins", fit.fitted_w_bins),
        ("achieved_smax", fit.achieved_smax), ("gamma_inf", fit.gamma_inf),
        ("iterations", fit.iterations),
    ])
    return 0


def _cmd_oracle(args) -> int:
    d = _resolve(args, "d")
    grid = _parse_grid(_resolve(args, "theta_grid"))
    rows = [[t, gamma_limit(t, d), raw_sign_E(t), -math.cos(t)] for t in grid]
    _table(("theta", "gamma_limit_coeff", "raw_sign_e", "quantum_e"), rows,
           args.out, "oracle.csv")
    return 0


def _cmd_analyze(args) -> int:
    w_bins = check_window(_resolve(args, "w_bins"))
    settings_a = _parse_angles(args.settings_a)
    settings_b = _parse_angles(args.settings_b)
    if not settings_a or not settings_b:
        raise UsageError("settings tables must be non-empty")
    report = analyze_external(args.file_a, args.file_b, settings_a, settings_b,
                              w_bins=w_bins)
    _table(REPORT_COLUMNS, report_rows(report))
    _emit([
        ("gamma_min_pairs", report.gamma_min_pairs),
        ("gamma_total_fraction", report.gamma_total_fraction),
        ("s_best", report.s_best),
        ("bound_lg", report.bound_lg),
        ("exceeds_chsh", report.flags.chsh if report.flags else None),
        ("exceeds_lg", report.flags.lg if report.flags else None),
    ])
    return 0


def _cmd_scenario(args) -> int:
    run = run_scenario(args.name, args.out, asdict(_params_from(args)))
    print(f"scenario {run.name}: {len(run.files)} tables in {run.out_dir} "
          f"({run.elapsed_s:.1f}s)")
    for name in run.files:
        print(f"  {name}")
    print(f"  manifest.txt")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="eprbsim", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"eprbsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one setting pair: counts and estimates")
    _add_param_flags(p)
    p.add_argument("--theta", type=float, default=None,
                   help="relative angle between the settings (radians)")
    p.add_argument("--out", default=None, help="directory for event streams")
    p.add_argument("--debug-hidden", action="store_true",
                   help="retain and persist hidden variables")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="correlations over a theta grid")
    _add_param_flags(p)
    p.add_argument("--theta-grid", dest="theta_grid", default=None,
                   help="grid as start:stop:count (radians)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("smax", help="maximize the four-correlation combination")
    _add_param_flags(p)
    p.add_argument("--theta-step", dest="theta_step", type=float, default=None,
                   help="estimation grid spacing (radians)")
    p.set_defaults(func=_cmd_smax)

    p = sub.add_parser("fit", help="fit the window to a target combination")
    _add_param_flags(p, windowed=False)
    p.add_argument("--target", type=float, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("oracle", help="analytic and quadrature reference curves")
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--theta-grid", dest="theta_grid", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("analyze", help="analyze two TTAG-CSV station files")
    p.add_argument("--file-a", required=True)
    p.add_argument("--file-b", required=True)
    p.add_argument("--settings-a", dest="settings_a", required=True,
                   help="comma-separated station-A setting angles (radians)")
    p.add_argument("--settings-b", dest="settings_b", required=True)
    p.add_argument("--w-bins", dest="w_bins", type=int, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("scenario", help="run a named reproduction bundle")
    p.add_argument("name", help=f"one of: {', '.join(SCENARIO_IDS)}")
    p.add_argument("--out", required=True, help="output directory")
    _add_param_flags(p)
    p.set_defaults(func=_cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args._config_values = parse_config(args.config)
        else:
            args._config_values = {}
        return args.func(args)
    except (UsageError, ValueError) as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 1
    except (EprbError, OSError, ArithmeticError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
