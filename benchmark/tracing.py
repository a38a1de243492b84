"""Stdlib-only span recorder and the layer metrics derived from its spans.

A span is one call into a layer: name, start, end, the span that caused it,
and a few counts taken from the call's arguments and result.  Spans are kept
in memory and written as JSON lines when the run ends.  Spans are recorded
from outside the program: :meth:`Tracer.install` replaces the functions that
each layer's callers look up (module attributes and class methods) with
timing wrappers, and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Nested spans of one single-threaded process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        """``fn`` recorded as a span; ``counts(args, kwargs, result)`` adds counts."""
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result
        return traced

    def install(self, targets) -> list[str]:
        """Wrap every ``(owner, attribute, span name, counts)`` target.

        Returns the targets the program no longer has; they are skipped, so
        their layer metrics read 0 instead of the run failing.
        """
        missing = []
        for owner, attr, name, counts in targets:
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, counts))
        return missing

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of recording one span around an empty call."""
    probe = Tracer().wrap("probe", lambda: None)
    t0 = time.perf_counter()
    for _ in range(n):
        probe()
    return (time.perf_counter() - t0) / n


def descendants(spans: list[dict], root: dict) -> list[dict]:
    """``root`` and every span under it (spans are stored in start order)."""
    inside = {root["id"]}
    out = [root]
    for span in spans[root["id"] + 1:]:
        if span["parent"] in inside:
            inside.add(span["id"])
            out.append(span)
    return out


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration less the time its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def op_metrics(spans: list[dict], root: dict, cost_per_span_s: float) -> dict[str, float]:
    """Per-layer metrics of one operation, from the spans under its root span."""
    tree = descendants(spans, root)
    own = self_times(tree)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    ensembles, tallies = set(), set()
    for s in tree:
        name = s["name"]
        total[name] += s["end"] - s["start"]
        calls[name] += 1
        layer_self[layer_of(name)] += own[s["id"]]
        c = s.get("counts") or {}
        for key, value in c.items():
            if isinstance(value, (int, float)):
                counts[f"{name}.{key}"] += value
        if name == "pipeline.ensemble":
            ensembles.add(tuple(c["key"]))
        elif name == "pipeline.tally":
            tallies.add((tuple(c["key"]), c["theta"]))

    wall = root["end"] - root["start"]
    tally_s = total["pipeline.tally"]
    match_s = total["coincidence.match"]
    m = {
        "rng.draw_s": total["rng.draw"],
        "rng.trials": counts["rng.draw.trials"],
        "model.hidden_s": total["model.hidden"],
        "model.station_s": total["model.station"],
        "model.station_calls": calls["model.station"],
        "pipeline.ensemble_s": total["pipeline.ensemble"],
        "pipeline.ensembles": calls["pipeline.ensemble"],
        "pipeline.ensembles_distinct": len(ensembles),
        "pipeline.ensemble_useful_ratio": _ratio(len(ensembles), calls["pipeline.ensemble"]),
        "pipeline.tally_s": tally_s,
        "pipeline.tallies": calls["pipeline.tally"],
        "pipeline.tallies_distinct": len(tallies),
        "pipeline.tally_useful_ratio": _ratio(len(tallies), calls["pipeline.tally"]),
        "pipeline.tally_windows": counts["pipeline.tally.windows"],
        "pipeline.trial_windows_per_s": _ratio(counts["pipeline.tally.trial_windows"], tally_s),
        "coincidence.estimate_s": total["coincidence.estimate"],
        "coincidence.estimates": calls["coincidence.estimate"],
        "coincidence.match_s": match_s,
        "coincidence.match_events": counts["coincidence.match.events"],
        "coincidence.matched_pairs": counts["coincidence.match.pairs"],
        "coincidence.match_events_per_s": _ratio(counts["coincidence.match.events"], match_s),
        "inequalities.maximize_calls": calls["inequalities.maximize_S"],
        "inequalities.select_s": sum(own[s["id"]] for s in tree
                                     if s["name"] == "inequalities.maximize_S"),
        "inequalities.gamma_refine_evals": calls["inequalities.gamma_refine"],
        "inequalities.gamma_refine_s": total["inequalities.gamma_refine"],
        "scenarios.artifact_s": total["scenarios.artifact"],
        "ttag_io.export_s": total["ttag_io.export"],
        "ttag_io.write_s": total["ttag_io.write"],
        "ttag_io.bytes_written": counts["ttag_io.write.bytes"],
        "ttag_io.read_s": total["ttag_io.read"],
        "ttag_io.bytes_read": counts["ttag_io.read.bytes"],
        "analyze.self_s": layer_self["analyze"],
        "cli.self_s": layer_self["cli"],
        "phase.ttag_write_s": total["bench.ttag_write"],
        "phase.analyze_s": total["bench.analyze"],
        "trace.op_wall_s": wall,
        "trace.spans": len(tree),
        "trace.overhead_s": len(tree) * cost_per_span_s,
        "trace.self_sum_s": sum(layer_self.values()),
    }
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = layer_self[layer]
    return m


def metric_names() -> list[str]:
    """Names of the metrics :func:`op_metrics` returns, in its order."""
    root = {"id": 0, "name": "bench.op", "parent": None, "start": 0.0, "end": 0.0}
    return list(op_metrics([root], root, 0.0))


#: layers whose self times partition an operation's wall time; ``bench`` is
#: the time under the operation's root span that no program span covers
LAYERS = ("rng", "model", "pipeline", "coincidence", "inequalities",
          "scenarios", "ttag_io", "analyze", "cli", "bench")


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system
