"""Spans around the public calls into each ``billiardlab`` module.

The library is not edited: :func:`install` replaces every public function
of each layer module by a wrapper, in every ``billiardlab`` namespace that
holds it (the modules bind their imports with ``from ... import``), plus
the set-algebra methods of ``IntervalUnion``.  Each wrapper records one
span (name, start, end, parent, run id) in memory, with work counts taken
from the call's arguments and return value.  :meth:`Recorder.write` dumps
the spans as JSON lines when the pass ends, and :func:`layer_metrics`
derives the per-layer table from such a file.

A layer is a module; self time is a span's duration minus the durations
of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List

LAYERS = ("dioph", "billiard", "fixedpoint", "circle", "cantor", "dimension",
          "intervals", "experiments")

_SETOPS = ("union", "intersect", "subtract", "complement", "is_subset_of")


# -- work counts, from arguments and return values ---------------------------
# A field whose name starts with ``max_`` aggregates by max, others by sum.

def _scan_work(bound, result):
    return {"p_range": bound.arguments["p_max"], "solutions": len(result)}


def _escape_work(bound, result):
    report = result[1]
    return {"beam_records": report.j_N, "max_reflections": report.max_reflections}


def _hierarchy_work(bound, result):
    # What the hierarchy stores: the intervals of a materialized level, one
    # child count per parent of a counted level.  The exact level counts
    # reach 10^30 and do not fit a 64-bit number.
    return {"level_intervals": sum(
        len(lev.intervals) if lev.materialized else len(lev.child_counts)
        for lev in result.levels)}


def _pieces_work(bound, result):
    return {"pieces": len(result)}


def _report_work(bound, result):
    out_dir = bound.arguments["out_dir"]
    return {"report_bytes": sum(os.path.getsize(os.path.join(out_dir, name))
                                for name in result)}


_WORK: Dict[str, Callable] = {
    "dioph.approx_solutions": _scan_work,
    "dioph.minkowski_solutions": _scan_work,
    "billiard.escape_set": _escape_work,
    "cantor.build_hierarchy": _hierarchy_work,
    "intervals.make": _pieces_work,
    "intervals.union": _pieces_work,
    "intervals.intersect": _pieces_work,
    "intervals.subtract": _pieces_work,
    "intervals.complement": _pieces_work,
    "experiments.write_report": _report_work,
}


class Recorder:
    """Spans of one pass, kept in memory until :meth:`write`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent, work]
        self._open: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        work = _WORK.get(name)
        signature = inspect.signature(fn) if work is not None else None
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                open_.pop()
            if work is not None:
                span[4] = work(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id,
                                     "work": work}) + "\n")


def install(recorder: Recorder) -> None:
    """Route the public calls of every layer through ``recorder``."""
    wrapped: Dict[int, Callable] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"billiardlab.{layer}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[id(obj)] = recorder.wrap(f"{layer}.{name}", obj)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "billiardlab":
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])
    cls = importlib.import_module("billiardlab.intervals").IntervalUnion
    for name in ("make",) + _SETOPS:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(recorder.wrap(f"intervals.{name}",
                                                         raw.__func__)))
        else:
            setattr(cls, name, recorder.wrap(f"intervals.{name}", raw))


# -- from spans to the per-layer table ---------------------------------------

def read_spans(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def aggregate(spans: List[dict]) -> Dict[str, Dict[str, Any]]:
    """Per span name: calls, self and total nanoseconds, and work sums."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end"] - s["start"]
    out: Dict[str, Dict[str, Any]] = {}
    for s, kids in zip(spans, child_ns):
        a = out.setdefault(s["name"], {"calls": 0, "self_ns": 0,
                                       "total_ns": 0, "work": {}})
        a["calls"] += 1
        a["total_ns"] += s["end"] - s["start"]
        a["self_ns"] += s["end"] - s["start"] - kids
        for key, value in (s["work"] or {}).items():
            old = a["work"].get(key, 0)
            a["work"][key] = max(old, value) if key.startswith("max_") else old + value
    return out


def inclusive_ns(spans: List[dict]) -> Dict[str, int]:
    """Per layer: time in its outermost spans, callees in other layers
    included (a layer's spans nested in its own spans count once)."""
    out: Dict[str, int] = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        p = s["parent"]
        while p >= 0 and not spans[p]["name"].startswith(layer + "."):
            p = spans[p]["parent"]
        if p < 0:
            out[layer] = out.get(layer, 0) + s["end"] - s["start"]
    return out


# name, unit, better.  The order is the print order.
METRICS = [
    ("dioph.self_s", "s", "lower"),
    ("dioph.minkowski_solutions.calls", "count", "lower"),
    ("dioph.minkowski_solutions.self_s", "s", "lower"),
    ("dioph.approx_solutions.calls", "count", "lower"),
    ("dioph.approx_solutions.self_s", "s", "lower"),
    ("dioph.ubiquity_deficiency.self_s", "s", "lower"),
    ("dioph.p_range", "count", "lower"),
    ("dioph.solutions", "count", "higher"),
    ("dioph.p_per_s", "1/s", "higher"),
    ("billiard.self_s", "s", "lower"),
    ("billiard.escape_set.calls", "count", "lower"),
    ("billiard.escape_set.self_s", "s", "lower"),
    ("billiard.beam_records", "count", "lower"),
    ("billiard.max_reflections", "count", "lower"),
    ("billiard.records_per_s", "1/s", "higher"),
    ("billiard.perpendicular_periodicity.self_s", "s", "lower"),
    ("fixedpoint.self_s", "s", "lower"),
    ("fixedpoint.floor_sum.calls", "count", "lower"),
    ("fixedpoint.floor_sum.self_s", "s", "lower"),
    ("fixedpoint.convert.calls", "count", "lower"),
    ("fixedpoint.convert.self_s", "s", "lower"),
    ("circle.self_s", "s", "lower"),
    ("circle.continued_fraction.calls", "count", "lower"),
    ("circle.continued_fraction.self_s", "s", "lower"),
    ("circle.three_distance_gap.calls", "count", "lower"),
    ("circle.three_distance_gap.self_s", "s", "lower"),
    ("circle.eval_number.calls", "count", "lower"),
    ("circle.eval_number.self_s", "s", "lower"),
    ("cantor.self_s", "s", "lower"),
    ("cantor.select_sequence.self_s", "s", "lower"),
    ("cantor.build_hierarchy.self_s", "s", "lower"),
    ("cantor.reports.self_s", "s", "lower"),
    ("cantor.level_intervals", "count", "lower"),
    ("dimension.self_s", "s", "lower"),
    ("dimension.cover_escape_set.self_s", "s", "lower"),
    ("dimension.average_length_cover.calls", "count", "lower"),
    ("dimension.average_length_cover.self_s", "s", "lower"),
    ("intervals.self_s", "s", "lower"),
    ("intervals.make.calls", "count", "lower"),
    ("intervals.make.self_s", "s", "lower"),
    ("intervals.setops.calls", "count", "lower"),
    ("intervals.setops.self_s", "s", "lower"),
    ("intervals.pieces", "count", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.run_experiment.self_s", "s", "lower"),
    ("experiments.write_report.self_s", "s", "lower"),
    ("experiments.report_bytes", "bytes", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]

# Metrics that must repeat exactly from pass to pass.
COUNT_METRICS = tuple(name for name, unit, _ in METRICS
                      if unit in ("count", "bytes"))

# Grouped span names behind a metric stem ("<layer>.<group>").
_GROUPS = {
    "fixedpoint.convert": ("fixedpoint.to_fixed", "fixedpoint.from_fixed"),
    "cantor.reports": ("cantor.local_dimension_report",
                       "cantor.separation_report"),
    "intervals.setops": tuple(f"intervals.{op}" for op in _SETOPS),
}


def layer_metrics(agg: Dict[str, Dict[str, Any]], run_s: float,
                  n_spans: int, scale: float) -> Dict[str, float]:
    """The METRICS values of one traced pass; span times are multiplied by
    ``scale``, as the pass time ``run_s`` was (``trace.overhead_ratio`` is
    left to the caller, which also holds the untraced passes)."""

    def names(stem: str):
        if stem in _GROUPS:
            return _GROUPS[stem]
        if stem.count(".") == 0:
            return [n for n in agg if n.startswith(stem + ".")]
        return (stem,)

    def field(stem: str, key: str) -> float:
        return sum(agg[n][key] for n in names(stem) if n in agg)

    def work(key: str) -> int:
        values = [a["work"].get(key, 0) for a in agg.values()]
        if key.startswith("max_"):
            return max(values, default=0)
        return sum(values)

    def rate(count_key: str, stems) -> float:
        busy = sum(field(s, "total_ns") for s in stems) / 1e9 * scale
        return work(count_key) / busy if busy else 0.0

    out: Dict[str, float] = {}
    for name, _, _ in METRICS:
        stem, _, last = name.rpartition(".")
        if last == "self_s":
            out[name] = field(stem, "self_ns") / 1e9 * scale
        elif last == "calls":
            out[name] = field(stem, "calls")
        elif name == "dioph.p_per_s":
            out[name] = rate("p_range", ("dioph.approx_solutions",
                                         "dioph.minkowski_solutions"))
        elif name == "billiard.records_per_s":
            out[name] = rate("beam_records", ("billiard.escape_set",))
        elif name == "trace.run_s":
            out[name] = run_s
        elif name == "trace.spans":
            out[name] = n_spans
        elif name != "trace.overhead_ratio":
            out[name] = work(last)
    return out
