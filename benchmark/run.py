"""The eprbsim benchmark: one workload per process, timed from outside.

Run from the root of a source checkout::

    python3 benchmark/run.py --workload smax-paper --seed 0 --seconds 10 --trace 0

The workload is a closed loop with one caller: each operation starts when
the previous one and its output checks have finished, and operations repeat
until ``--seconds`` have passed (at least one is made).  Every operation's
outputs are checked against the reference values of ``reference.json`` or
against a property the method must have; an operation that raises or fails a
check counts as failed.  The last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics (medians over the run's operations), with ``--trace 1`` the
per-layer metrics derived from spans recorded around the program's layers.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # String hashing is salted per process unless fixed, and the salt moves
    # allocations enough that ttag-chsh's peak memory varied by 5 % between
    # runs of one seed.  Run again in this same process with the salt fixed.
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": "0"})

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import time
import traceback
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

import checks
import reference
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: set-ups made per run; setup_s reports their median
SETUP_REPEATS = 3

T0_RATIO = reference.T0_RATIO
D_EXP = reference.D_EXP


class Workload:
    """One kind of operation: ``build`` its inputs, ``run`` it, ``check`` it."""

    def __init__(self, ep, seed: int, work_dir: Path):
        self.ep = ep
        self.seed = seed
        self.work_dir = work_dir

    def build(self):
        raise NotImplementedError

    def run(self, inputs, tracer):
        raise NotImplementedError

    def check(self, inputs, result) -> list[str]:
        raise NotImplementedError


class SmaxPaper(Workload):
    """``maximize_S`` at the reply's three operating points, N = 10^6."""

    POINTS = ((1, 0), (16, 10), (285, 6))  # (window, named seed)
    N = 10**6

    def build(self):
        return [self.ep.SimParams(w, T0_RATIO, D_EXP, self.N, s + self.seed)
                for w, s in self.POINTS]

    def run(self, inputs, tracer):
        return [self.ep.inequalities.maximize_S(p) for p in inputs]

    def check(self, inputs, result):
        table = reference.load_table()
        problems = []
        for p, rep in zip(inputs, result):
            problems += [f"w={p.w_bins}: {msg}"
                         for msg in checks.check_smax(rep, p.n_trials, table[p.w_bins])]
        return problems


class WindowScan(SmaxPaper):
    """``maximize_S`` at each window a bisection for S = 2.73 visits, N = 2 x 10^5.

    The windows are those ``fit_window(2.73)`` visits when S(w) is the
    reference curve; every call uses the same seed, so the 12 calls rebuild
    the same 5 ensembles.
    """

    POINTS = tuple((w, 10) for w in (1, 1000, 500, 250, 125, 63, 32, 16, 24, 20, 18, 17))
    N = 2 * 10**5


class Fig1(Workload):
    """``run_scenario("fig1")``: 37 angles x 3 windows on one ensemble, N = 10^6."""

    WINDOWS = (1, 16, 285)
    NAMED_SEED = 1

    def build(self):
        return {"seed": self.NAMED_SEED + self.seed}

    def run(self, inputs, tracer):
        return self.ep.scenarios.run_scenario("fig1", self.work_dir / "fig1", inputs)

    def check(self, inputs, run):
        n = int(self.ep.ttag_io.read_manifest(run.manifest_path).params["n_trials"])
        tables = {}
        for w in self.WINDOWS:
            with open(run.out_dir / f"gamma_w{w}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            tables[w] = [(float(r["theta"]), float(r["e"]) if r["e"] else None,
                          float(r["stderr_e"]) if r["stderr_e"] else 0.0,
                          float(r["gamma"]), int(r["n_coinc"])) for r in rows]
        problems = checks.check_sweeps(tables, n, reference.load_table())
        bad = self.ep.ttag_io.verify_manifest(run.manifest_path)
        if bad:
            problems.append(f"manifest digests disagree for {bad}")
        return problems


class TtagChsh(Workload):
    """Two 10^6-event TTAG-CSV station files of the CHSH settings, then ``analyze``.

    Cell ``(i, j)`` is ``run_pairs`` at station-A angle ``i`` and station-B
    angle ``j``, 2.5 x 10^5 trials at w = 285 with seed ``1 + 4 * seed + 2i + j``.
    The four cells are laid one after another in time: cell ``q = 2i + j``
    starts at tag ``q * 2.5e5 * stride``, with ``stride`` the export default.
    """

    ANGLES_A = (0.0, math.pi / 2)
    ANGLES_B = (math.pi / 4, 3 * math.pi / 4)
    W = 285
    N_CELL = 250000

    def __init__(self, *args):
        super().__init__(*args)
        self._first: dict | None = None

    def build(self):
        ep = self.ep
        blocks = {}
        for i, a in enumerate(self.ANGLES_A):
            for j, b in enumerate(self.ANGLES_B):
                params = ep.SimParams(self.W, T0_RATIO, D_EXP, self.N_CELL,
                                      1 + 4 * self.seed + 2 * i + j)
                blocks[(i, j)] = ep.model.run_pairs(
                    ep.Setting.from_polar(a), ep.Setting.from_polar(b), params)
        return blocks

    def _stations(self, blocks):
        """Both stations' streams, the four cells one after another in time."""
        cols_a, cols_b = [], []
        offset = 0
        for (i, j), block in sorted(blocks.items()):
            pair = self.ep.ttag_io.export_station_streams(block, i, j)
            for cols, stream in zip((cols_a, cols_b), pair):
                cols.append((stream.k + offset, stream.setting_index, stream.x))
            offset += len(block) * 2 * (block.params.max_tag + 1)
        return tuple(self.ep.EventStream(*map(np.concatenate, zip(*cols)))
                     for cols in (cols_a, cols_b))

    def run(self, blocks, tracer):
        files = (self.work_dir / "station_a.csv", self.work_dir / "station_b.csv")
        with phase(tracer, "bench.ttag_write"):
            streams = self._stations(blocks)
            for stream, path in zip(streams, files):
                self.ep.ttag_io.write_events(stream, path)
        out = io.StringIO()
        with phase(tracer, "bench.analyze"), redirect_stdout(out):
            code = self.ep.cli.main([
                "analyze", "--file-a", str(files[0]), "--file-b", str(files[1]),
                "--settings-a", ",".join(repr(t) for t in self.ANGLES_A),
                "--settings-b", ",".join(repr(t) for t in self.ANGLES_B),
                "--w-bins", str(self.W)])
        return {"streams": streams, "files": files, "code": code, "stdout": out.getvalue()}

    def _expected(self, blocks, result):
        """Read-back check and in-memory analysis, made once per run."""
        ep = self.ep
        problems = []
        for stream, path in zip(result["streams"], result["files"]):
            if ep.ttag_io.read_events(path) != stream:
                problems.append(f"{path.name} reads back as a different stream")
        report = ep.analyze.analyze_streams(*result["streams"], 2, 2, self.W)
        rows = {key: (est.e, est.stderr_e, est.gamma, report.counts[key].n_coinc,
                      report.counts[key].n_total) for key, est in report.cells.items()}
        counts = {key: (c.n_pp, c.n_pm, c.n_mp, c.n_mm) for key, c in report.counts.items()}
        tallies = {}
        for key, block in blocks.items():
            t = ep.coincidence.tally(block, self.W)
            tallies[key] = (t.n_pp, t.n_pm, t.n_mp, t.n_mm)
        events = [dict(enumerate(np.bincount(s.setting_index).tolist()))
                  for s in result["streams"]]
        problems += checks.check_cells(rows, counts, tallies, *events)
        problems += checks.check_s_best(
            report.s_best, {k: (e.e, e.stderr_e) for k, e in report.cells.items()},
            reference.load_table()[self.W], self.ANGLES_A, self.ANGLES_B)
        return {"digests": [_digest(p) for p in result["files"]], "rows": rows,
                "s_best": report.s_best, "problems": problems}

    def check(self, blocks, result):
        if result["code"] != 0:
            return [f"analyze exited with {result['code']}"]
        if self._first is None:
            self._first = self._expected(blocks, result)
        expected = self._first
        problems = list(expected["problems"])
        if [_digest(p) for p in result["files"]] != expected["digests"]:
            problems.append("station files differ from the ones read back")
        printed, s_best = _parse_analyze(result["stdout"])
        if printed != expected["rows"]:
            problems.append(f"printed cells {printed} differ from the in-memory "
                            f"analysis {expected['rows']}")
        if s_best != expected["s_best"]:
            problems.append(f"printed s_best {s_best!r}, in-memory {expected['s_best']!r}")
        return problems


WORKLOADS = {"smax-paper": SmaxPaper, "window-scan": WindowScan, "fig1": Fig1,
             "ttag-chsh": TtagChsh}


@contextmanager
def phase(tracer, name):
    if tracer is None:
        yield
        return
    span = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(span)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _parse_analyze(text: str):
    """Cell rows and ``s_best`` from the output of ``eprbsim analyze``."""
    rows, s_best = {}, None
    for line in text.splitlines():
        if line.startswith("cell,"):
            _, ia, ib, e, se, g, nc, nt = line.split(",")
            rows[(int(ia), int(ib))] = (float(e) if e else None, float(se) if se else None,
                                        float(g), int(nc), int(nt))
        elif line.startswith("s_best = "):
            value = line.split("=", 1)[1].strip()
            s_best = None if value == "undefined" else float(value)
    return rows, s_best


def trace_targets(ep) -> list[tuple]:
    """The program functions wrapped in a traced run, as their callers bind them."""
    an, cli, ineq, model, pipe, scen, tio = (
        ep.analyze, ep.cli, ep.inequalities, ep.model, ep.pipeline, ep.scenarios, ep.ttag_io)
    engine = pipe.ThetaEngine

    def key(eng):
        p = eng.params
        return [p.seed, eng.first_trial, p.n_trials, p.t0_ratio, p.d]

    def tally_counts(args, kwargs, result):
        eng, theta = args[0], args[1] if len(args) > 1 else kwargs["theta"]
        w = args[2] if len(args) > 2 else kwargs.get("w_bins")
        windows = 1 if w is None or np.isscalar(w) else len(w)
        return {"key": key(eng), "theta": float(theta), "windows": windows,
                "trial_windows": eng.params.n_trials * windows}

    def file_bytes(index):
        return lambda args, kwargs, result: {"bytes": Path(args[index]).stat().st_size}

    return [
        (model, "uniform_block", "rng.draw",
         lambda args, kwargs, result: {"trials": int(result.shape[-1])}),
        (pipe, "_hidden_arrays", "model.hidden", None),
        (pipe, "_station_kernel", "model.station", None),
        (engine, "__init__", "pipeline.ensemble",
         lambda args, kwargs, result: {"key": key(args[0])}),
        (engine, "block_counts_at", "pipeline.tally", tally_counts),
        (engine, "gamma_at", "inequalities.gamma_refine", None),
        (pipe, "estimate", "coincidence.estimate", None),
        (scen, "estimate", "coincidence.estimate", None),
        (an, "estimate", "coincidence.estimate", None),
        (an, "match_streams", "coincidence.match",
         lambda args, kwargs, result: {"events": len(args[0]) + len(args[1]),
                                       "pairs": sum(c.n_coinc for c in result.values())}),
        (ineq, "maximize_S", "inequalities.maximize_S", None),
        (scen, "maximize_S", "inequalities.maximize_S", None),
        (scen, "run_scenario", "scenarios.run_scenario", None),
        (scen, "write_results_csv", "scenarios.artifact", None),
        (scen, "file_digest", "scenarios.artifact", None),
        (scen, "write_manifest", "scenarios.artifact", None),
        (tio, "export_station_streams", "ttag_io.export", None),
        (tio, "write_events", "ttag_io.write", file_bytes(1)),
        (an, "read_events", "ttag_io.read", file_bytes(0)),
        (cli, "analyze_external", "analyze.analyze_external", None),
        (an, "analyze_streams", "analyze.analyze_streams", None),
        (cli, "main", "cli.main", None),
    ]


def import_program():
    """Import eprbsim afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "eprbsim" or m.startswith("eprbsim.")]:
        del sys.modules[name]
    import eprbsim
    import eprbsim.cli  # noqa: F401  (the command line front end is timed too)
    src = ROOT / "src" / "eprbsim"
    if Path(eprbsim.__file__).resolve().parent != src.resolve():
        raise SystemExit(f"error: eprbsim imported from {eprbsim.__file__}, not {src}")
    return eprbsim


def set_up(args, work_dir: Path):
    """Import the program and build the inputs ``SETUP_REPEATS`` times.

    Returns the last workload and inputs, and the median set-up time.  The
    first set-up also loads numpy and scipy, which later ones find loaded.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](import_program(), args.seed, work_dir)
        inputs = workload.build()
        times.append(time.perf_counter() - t0)
    gc.collect()  # free the earlier imports now, not at some point during an operation
    return workload, inputs, statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="shifts every named model seed; 0 gives the named seeds")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    src = ROOT / "src"
    if not (src / "eprbsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no eprbsim sources under {src}")
    sys.path.insert(0, str(src))

    work_dir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(args, work_dir: Path) -> int:
    workload, inputs, setup_s = set_up(args, work_dir)
    ep = workload.ep
    tracer = tracing.Tracer() if args.trace else None
    missing = tracer.install(trace_targets(ep)) if tracer else []
    for name in missing:
        print(f"trace: {name} not found; its layer reads 0", file=sys.stderr)

    attempted = failed = 0
    correct = True
    walls, cpus, roots = [], [], []
    deadline = time.perf_counter() + args.seconds
    try:
        while attempted == 0 or time.perf_counter() < deadline:
            attempted += 1
            result = None  # the previous output must not add to this operation's memory
            root = tracer.open("bench.op") if tracer else None
            cpu0, t0 = tracing.cpu_seconds(), time.perf_counter()
            try:
                result = workload.run(inputs, tracer)
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            finally:
                wall = time.perf_counter() - t0
                cpu = tracing.cpu_seconds() - cpu0
                if root is not None:
                    tracer.close(root)
            try:
                problems = workload.check(inputs, result)
            except Exception as ex:  # an output the checks cannot read is a wrong output
                traceback.print_exc()
                problems = [f"check raised {ex!r}"]
            if problems:
                failed += 1
                correct = False
                for msg in problems:
                    print(f"check failed: {msg}", file=sys.stderr)
                continue
            walls.append(wall)
            cpus.append(cpu)
            if root is not None:
                roots.append(root)
    finally:
        if tracer:
            tracer.uninstall()

    if tracer:
        cost = tracing.span_cost_s()
        per_op = [tracing.op_metrics(tracer.spans, r, cost) for r in roots]
        metrics = {name: (statistics.median(m[name] for m in per_op) if per_op else 0.0,
                          _unit(name)) for name in tracing.metric_names()}
        metrics["proc.cpu_s"] = (statistics.median(cpus) if cpus else 0.0, "s")
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "op_s": (statistics.median(walls) if walls else 0.0, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("ttag_io.bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
