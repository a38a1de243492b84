"""No dead names: every import is read, and every library definition is used.

No linter is installed, so this stays stdlib-only and parses with ``ast``:

* each module under ``src/eprbsim`` except the package ``__init__`` (which
  imports to re-export) and ``tests`` reads every name it imports;
* every module-level ``def`` or ``class`` in ``src/eprbsim`` is loaded by
  name somewhere in ``src``, or is exported in ``eprbsim.__all__``;
* every public method of a class in ``src/eprbsim`` is loaded as an
  attribute somewhere in ``src``, unless it overrides a method of a base
  class (as ``cli._Parser.error`` does).

No work at import either: importing the package starts no thread, and a
tally, a write, a read or a match ends every thread it starts.  Threads come
from one helper, ``pipeline._each_chunk``.
"""

import ast
import importlib
import os
import subprocess
import sys
import threading
from concurrent.futures import Executor
from pathlib import Path

import pytest

import eprbsim

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for pattern in ("src/eprbsim/*.py", "tests/*.py")
                 for p in ROOT.glob(pattern) if p.name != "__init__.py")
LIBRARY = sorted((ROOT / "src" / "eprbsim").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in loaded]


def test_checker_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path as p\nprint(p)\n") == [
        "math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_definitions(modules: dict[str, str], readers: list[str], exported,
                     overrides=lambda module, cls, name: False) -> list[str]:
    """Each top-level def or class no reader loads or ``exported`` names, as
    ``module.name``, and each public method no reader loads as an attribute,
    as ``module.Class.method``, unless ``overrides(module, Class, method)``."""
    trees = [ast.parse(source) for source in readers]
    loaded = {node.id for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    attributes = {node.attr for tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    dead = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in loaded and node.name not in exported:
                dead.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                dead += [f"{module}.{node.name}.{f.name}" for f in node.body
                         if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                         and f.name not in attributes and not overrides(module, node.name, f.name)]
    return dead


def overrides_base(module: str, cls: str, name: str) -> bool:
    """Whether ``eprbsim.module.cls.name`` overrides a method of a base class."""
    bases = getattr(importlib.import_module(f"eprbsim.{module}"), cls).__mro__[1:]
    return any(hasattr(base, name) for base in bases)


def test_checker_finds_a_dead_definition():
    lib = "def used():\n    pass\n\ndef dead():\n    pass\n\nclass Public:\n    pass\n"
    assert dead_definitions({"lib": lib}, [lib, "used()\n"], {"Public"}) == ["lib.dead"]


def test_checker_finds_a_dead_method():
    lib = ("class Engine(Base):\n"
           "    def __init__(self):\n        self._helper()\n"
           "    def _helper(self):\n        pass\n"
           "    def used(self):\n        pass\n"
           "    def dead(self):\n        pass\n"
           "    def error(self):\n        pass\n")
    reader = "Engine().used()\n"
    assert dead_definitions({"lib": lib}, [lib, reader], set(),
                            lambda module, cls, name: name == "error") == ["lib.Engine.dead"]


def test_override_is_found_on_a_base_class():
    assert overrides_base("cli", "_Parser", "error")
    assert not overrides_base("pipeline", "ThetaEngine", "block_counts_over")


def test_no_dead_definitions():
    readers = [p.read_text() for p in ROOT.glob("src/eprbsim/*.py")]
    modules = {p.stem: p.read_text() for p in LIBRARY}
    assert dead_definitions(modules, readers, set(eprbsim.__all__), overrides_base) == []


def test_import_starts_no_thread():
    code = ("import threading; before = threading.active_count(); "
            "import eprbsim, eprbsim.cli; print(threading.active_count() - before)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0"


def test_a_tally_leaves_no_thread_running(tmp_path):
    from unittest import mock

    from eprbsim import (EventStream, SimParams, ThetaEngine, coincidence, match_streams,
                         pipeline, ttag_io)

    p = SimParams(w_bins=1, t0_ratio=37.5, d=3.0, n_trials=5000, seed=3)
    stream = EventStream(range(50), [0] * 50, [1] * 50)
    before = threading.active_count()
    with mock.patch.multiple(pipeline, _CHUNK=100, _cpus=lambda: 2), \
            mock.patch.multiple(ttag_io, _WRITE_ROWS=4, _READ_BYTES=64), \
            mock.patch.object(coincidence, "_MATCH_EVENTS", 4):
        ThetaEngine(p).block_counts_over([0.5, 1.0], [1, 16])
        ttag_io.write_events(stream, tmp_path / "s.csv")
        assert threading.active_count() == before
        assert ttag_io.read_events(tmp_path / "s.csv") == stream
        assert threading.active_count() == before
        assert match_streams(stream, stream, 1)[(0, 0)].n_pp == 50
    assert threading.active_count() == before
    # no module of the package holds a pool or a thread between calls
    for path in LIBRARY:
        module = importlib.import_module(f"eprbsim.{path.stem}")
        assert not [name for name, value in vars(module).items()
                    if isinstance(value, (threading.Thread, Executor))]


def test_one_cpu_or_one_chunk_starts_no_thread(tmp_path):
    from unittest import mock

    from eprbsim import EventStream, SimParams, ThetaEngine, match_streams, pipeline, ttag_io

    p = SimParams(w_bins=1, t0_ratio=37.5, d=3.0, n_trials=5000, seed=3)
    stream = EventStream(range(50), [0] * 50, [1] * 50)
    path = tmp_path / "s.csv"
    with mock.patch.object(pipeline, "ThreadPoolExecutor", side_effect=AssertionError):
        with mock.patch.multiple(pipeline, _CHUNK=100, _cpus=lambda: 1):
            ThetaEngine(p).block_counts_over([0.5], [1])
            ttag_io.write_events(stream, path)
            assert ttag_io.read_events(path) == stream
            assert match_streams(stream, stream, 1)[(0, 0)].n_pp == 50
        with mock.patch.object(pipeline, "_cpus", lambda: 2):  # one chunk, one piece
            ttag_io.write_events(stream, path)
            assert ttag_io.read_events(path) == stream
            assert match_streams(stream, stream, 1)[(0, 0)].n_pp == 50


def test_threads_come_from_one_helper():
    # a second pool idiom would need its own error, drain and thread-count rules
    from unittest import mock

    from eprbsim import EventStream, coincidence, match_streams, pipeline

    uses = set()
    for path in LIBRARY:
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, (ast.Import, ast.ImportFrom)):
                uses |= {(path.stem, getattr(top, "name", None)) for node in ast.walk(top)
                         if {getattr(node, "id", None), getattr(node, "attr", None)}
                         & {"ThreadPoolExecutor", "Thread"}}
    assert uses == {("pipeline", "_each_chunk")}
    # a 2-worker match runs its chunks on that helper's threads
    threads, real, other = set(), coincidence._segment_pairs, threading.Event()

    def segment_pairs(*args):
        # this thread's first chunk waits until the other worker has one
        threads.add(threading.current_thread())
        if threading.current_thread() is threading.main_thread():
            assert other.wait(10)
        else:
            other.set()
        return real(*args)

    stream = EventStream(range(0, 500, 10), [0] * 50, [1] * 50)
    helper = mock.Mock(wraps=pipeline._each_chunk)
    with mock.patch.multiple(pipeline, _cpus=lambda: 2, _each_chunk=helper), \
            mock.patch.multiple(coincidence, _MATCH_EVENTS=4, _segment_pairs=segment_pairs):
        assert match_streams(stream, stream, 1)[(0, 0)].n_pp == 50
    assert helper.call_count == 1 and len(threads) == 2


def test_io_workers_call_no_traced_function(monkeypatch, tmp_path):
    # the benchmark's tracer keeps one span stack, so only this thread may
    # enter a function it wraps while a write, a read or a match runs on two
    # workers
    from unittest import mock

    from eprbsim import EventStream, analyze, coincidence, pipeline, ttag_io

    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    import run

    importlib.import_module("eprbsim.cli")
    threads = set()
    for owner, attr, _, _ in run.trace_targets(eprbsim):
        if hasattr(owner, attr):
            def wrapped(*args, _real=getattr(owner, attr), **kwargs):
                threads.add(threading.current_thread())
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, attr, wrapped)
    stream = EventStream(range(50), [0] * 50, [1] * 50)
    with mock.patch.object(pipeline, "_cpus", lambda: 2), \
            mock.patch.multiple(ttag_io, _WRITE_ROWS=4, _READ_BYTES=64), \
            mock.patch.object(coincidence, "_MATCH_EVENTS", 4):
        ttag_io.write_events(stream, tmp_path / "s.csv")
        assert ttag_io.read_events(tmp_path / "s.csv") == stream
        # the analysis calls match_streams, which the trace wraps, from this thread
        assert analyze.analyze_streams(stream, stream, 1, 1, 1).cells[(0, 0)].e == 1.0
    assert threads <= {threading.main_thread()}


def test_benchmark_finds_every_traced_function(monkeypatch):
    # a traced benchmark run wraps these functions of the program, as their
    # callers bind them; only a method deleted on purpose may be missing
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    import run
    import tracing

    importlib.import_module("eprbsim.cli")
    tracer = tracing.Tracer()
    try:
        missing = tracer.install(run.trace_targets(eprbsim))
    finally:
        tracer.uninstall()
    assert set(missing) <= {"ThetaEngine.gamma_at"}


def test_benchmark_trace_reads_the_engine_calls(monkeypatch, tmp_path):
    # a traced run reads the arguments and results of the functions it wraps;
    # run those readers on one maximize_S and one scenario, as a run would
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    import run
    import tracing

    from eprbsim import SimParams, inequalities, pipeline, scenarios
    importlib.import_module("eprbsim.cli")  # trace_targets reads the package's cli

    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)  # the tracer keeps one span stack
    inequalities._selection.clear()  # so the selection ensemble is built
    targets = run.trace_targets(eprbsim)
    counted = {name for _, _, name, counts in targets if counts is not None}
    tracer = tracing.Tracer()
    try:
        tracer.install(targets)
        inequalities.maximize_S(SimParams(w_bins=16, t0_ratio=100.0, d=3.0, n_trials=2000,
                                          seed=3))
        smax = list(tracer.spans)
        scenarios.run_scenario("fig1", tmp_path, {"n_trials": 2000})
    finally:
        tracer.uninstall()
    # a reader that raised would have failed its call; one that ran left its counts
    assert all("counts" in span for span in tracer.spans if span["name"] in counted)
    assert {span["name"] for span in tracer.spans} >= {
        "pipeline.ensemble", "pipeline.tally", "scenarios.run_scenario"}
    # the selection ensemble and four held-out legs, each leg one tally at one window
    assert sum(span["name"] == "pipeline.ensemble" for span in smax) == 5
    tallies = [span["counts"] for span in smax if span["name"] == "pipeline.tally"]
    assert len(tallies) == 4
    assert all(type(c["theta"]) is float and c["windows"] == 1 for c in tallies)
