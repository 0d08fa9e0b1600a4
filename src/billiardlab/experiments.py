"""Reproducible experiment drivers behind the ``lab`` command line tool.

Each experiment takes a validated :class:`ExperimentConfig`, runs a fixed
pipeline over the library primitives, and returns a :class:`RunReport`
holding CSV tables, a JSON result object, and the list of invariant
violations.  :func:`write_report` serializes a report into an output
directory: one CSV file per table, one JSON file with the full results,
and a manifest echoing the configuration.  Reports contain no timestamps
or environment-dependent fields, so a re-run with the same configuration
and seed produces byte-identical files.

This module holds what the experiments share.  Each runner lives in the
module that :data:`EXPERIMENTS` names, which validating a configuration
imports, so a run compiles only the library modules its experiment uses.
The record types, :class:`RunReport` among them, are plain slotted
classes: the frozen ones name their fields once, in ``__slots__``, and
share the constructor of :class:`billiardlab.records.Frozen`, so set-up
imports neither ``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import copy
import importlib
import json
import os
from types import ModuleType
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import __version__
from .circle import eval_number
from .errors import ConfigError

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "RunReport",
    "apply_overrides",
    "run_experiment",
    "write_report",
]


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

# A check takes an option's name and its merged value, raises ConfigError
# unless the value is acceptable, and returns the value to store.
Check = Callable[[str, Any], Any]
_INF = float("inf")


def _integer(lo: int, hi: float = _INF) -> Check:
    bound = f">= {lo}" if hi == _INF else f"in [{lo}, {hi}]"

    def check(name: str, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
            raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")
        return value
    return check


def _real(lo: float, hi: float, ends: str = "()") -> Check:
    """A JSON number strictly inside (lo, hi); ``ends`` "(]" or "[)" closes
    one end.  An infinite bound is never reached, so the value is finite."""
    interval = f"{ends[0]}{lo}, {hi}{ends[1]}"

    def check(name: str, value: Any) -> Any:
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not (lo <= value if ends[0] == "[" else lo < value)
                or not (value <= hi if ends[1] == "]" else value < hi)):
            raise ConfigError(f"{name} must be a number in {interval}, got {value!r}")
        return value
    return check


def _expr(lo: Optional[str] = None, hi: Optional[str] = None) -> Check:
    """A number or symbolic string that evaluates at 64 bits, strictly
    inside (lo, hi) where those bounds (number specs) are given."""
    def check(name: str, value: Any) -> Any:
        if not isinstance(value, (str, int, float)) or isinstance(value, bool):
            raise ConfigError(f"{name} must be a number or a symbolic string, "
                              f"got {type(value).__name__}")
        try:
            v = eval_number(value, 64)
        except ValueError as exc:
            raise ConfigError(f"{name} is not a valid numeric expression: {exc}")
        if ((lo is not None and not v > eval_number(lo, 64))
                or (hi is not None and not v < eval_number(hi, 64))):
            raise ConfigError(f"{name} must lie in ({lo or '-inf'}, "
                              f"{hi or 'inf'}), got {value}")
        return value
    return check


def _optional(inner: Check) -> Check:
    return lambda name, value: None if value is None else inner(name, value)


def _boolean(name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be a boolean, got {value!r}")
    return value


def _path(name: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a non-empty path string")
    return value


def _list(item: Check, increasing: bool = False) -> Check:
    def check(name: str, value: Any) -> List[Any]:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty list")
        out = [item(f"{name}[{i}]", v) for i, v in enumerate(value)]
        if increasing and any(b <= a for a, b in zip(out, out[1:])):
            raise ConfigError(f"{name} must be strictly increasing")
        return out
    return check


_ANGLE = _expr("0", "pi/2")
_POSITIVE = _expr("0")


def _polygon(default: Dict[str, Any], *kinds: str) -> Tuple[Dict[str, Any], Check]:
    """The ``polygon`` row: ``default`` and a check that accepts a spec of
    one of ``kinds`` and returns it normalized, each missing field taken
    from ``default`` (side and base 1 where it has none)."""
    def check(name: str, spec: Any) -> Dict[str, Any]:
        if not isinstance(spec, Mapping):
            raise ConfigError(f"{name} must be an object with kind/alpha/side[/base]")
        kind = spec.get("kind", default["kind"])
        if kind not in kinds:
            raise ConfigError(f"{name}.kind must be {' or '.join(kinds)}, got {kind!r}")
        lengths = ["side", "base"] if kind == "parallelogram" else ["side"]
        unknown = set(spec) - {"kind", "alpha", *lengths}
        if unknown:
            raise ConfigError(f"unknown {name} keys for a {kind}: {sorted(unknown)}")
        out = {"kind": kind,
               "alpha": _ANGLE(f"{name}.alpha", spec.get("alpha", default["alpha"]))}
        for key in lengths:
            out[key] = _POSITIVE(f"{name}.{key}", spec.get(key, default.get(key, 1)))
        return out
    return default, check


_BITS = _integer(64, 8192)
_COUNT = _integer(1)
_UNIT = _real(0, 1)

#: Options as ``key: (default, check)``: these common ones, and each
#: experiment's row in its runner module's ``_SCHEMA``.  A configuration
#: may only set keys listed for its experiment (plus the common keys);
#: unknown keys are rejected so typos cannot silently fall back to defaults.
_COMMON: Dict[str, Tuple[Any, Check]] = {
    "seed": (20260818, _integer(0)),
    "out_dir": ("lab_out", _path),
}

#: The module under ``billiardlab`` that holds each experiment: its option
#: row in ``_SCHEMA``, its runner in ``_RUNNERS``, and, where options tie
#: to one another, ``_check_across(opts)``.
EXPERIMENTS: Dict[str, str] = {
    "thm1_cover": "lab_escape",
    "thm2_cover": "lab_escape",
    "cantor_dim": "lab_cantor",
    "ubiquity": "lab_scans",
    "minkowski_scan": "lab_scans",
    "perp_orbits": "lab_perp",
    "three_distance_audit": "lab_audit",
}


def _runner_module(experiment: str) -> ModuleType:
    return importlib.import_module(f".{EXPERIMENTS[experiment]}", __package__)


class ExperimentConfig:
    """Validated options for one experiment run.

    Options are exposed as attributes (``config.p_max``); the schema is the
    union of the common keys (experiment, seed, out_dir) and the experiment's
    row in its runner module's option table, which validation imports.
    """

    def __init__(self, options: Dict[str, Any]):
        self._options = dict(options)

    def __getattr__(self, name: str) -> Any:
        # Through __dict__: copy and pickle build a blank instance and probe
        # it before _options is set, and self._options would recurse there.
        try:
            return self.__dict__["_options"][name]
        except KeyError:
            raise AttributeError(name) from None

    def to_json_obj(self) -> Dict[str, Any]:
        return copy.deepcopy(self._options)

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any],
                      experiment: Optional[str] = None) -> "ExperimentConfig":
        if not isinstance(obj, Mapping):
            raise ConfigError("configuration must be a JSON object")
        name = experiment if experiment is not None else obj.get("experiment")
        if name is None:
            raise ConfigError("no experiment selected")
        if name not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {name!r}; expected one of "
                              f"{sorted(EXPERIMENTS)}")
        declared = obj.get("experiment")
        if declared is not None and declared != name:
            raise ConfigError(f"config declares experiment {declared!r} but "
                              f"{name!r} was requested")
        runner = _runner_module(name)
        table = {**_COMMON, **runner._SCHEMA[name]}
        unknown = set(obj) - set(table) - {"experiment"}
        if unknown:
            raise ConfigError(f"unknown option(s) for {name}: {sorted(unknown)}")
        opts: Dict[str, Any] = {"experiment": name}
        for key, (default, check) in table.items():
            opts[key] = check(key, obj.get(key, default))
        if hasattr(runner, "_check_across"):
            runner._check_across(opts)
        return cls(opts)


def apply_overrides(obj: Dict[str, Any], overrides: Sequence[str]) -> Dict[str, Any]:
    """Apply ``key=value`` strings (dotted keys descend into sub-objects).

    Values are parsed as JSON when possible and fall back to plain strings,
    so ``--override p_max=500`` assigns an integer while
    ``--override theta=pi/7`` assigns a symbolic string.
    """
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = obj
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"override {key!r} descends into non-object "
                                  f"{part!r}")
            node = nxt
        node[parts[-1]] = value
    return obj


# --------------------------------------------------------------------------
# report plumbing
# --------------------------------------------------------------------------

class RunReport:
    """Outcome of one experiment run, ready for serialization."""

    __slots__ = ("experiment", "violations", "notes", "tables", "data", "config")

    def __init__(self, experiment: str, violations: List[str], notes: List[str],
                 tables: Dict[str, Tuple[str, List[str]]], data: Dict[str, Any],
                 config: ExperimentConfig):
        self.experiment = experiment
        self.violations = violations
        self.notes = notes
        self.tables = tables
        self.data = data
        self.config = config

    @property
    def passed(self) -> bool:
        return not self.violations


def write_report(report: RunReport, out_dir: str) -> List[str]:
    """Write CSV tables, the JSON result, and the manifest; return filenames."""
    os.makedirs(out_dir, exist_ok=True)
    names: List[str] = []
    for table in sorted(report.tables):
        header, rows = report.tables[table]
        fname = f"{report.experiment}.{table}.csv"
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(row + "\n")
        names.append(fname)
    result_obj = {
        "experiment": report.experiment,
        "passed": report.passed,
        "violations": report.violations,
        "notes": report.notes,
        "config": report.config.to_json_obj(),
        "results": report.data,
    }
    json_name = f"{report.experiment}.json"
    with open(os.path.join(out_dir, json_name), "w", encoding="utf-8") as fh:
        json.dump(result_obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    names.append(json_name)
    manifest = {
        "experiment": report.experiment,
        "package": "billiardlab",
        "version": __version__,
        "precision_bits": report.config.precision_bits,
        "seed": report.config.seed,
        "passed": report.passed,
        "violations": report.violations,
        "config": report.config.to_json_obj(),
        "outputs": sorted(names),
    }
    manifest_name = f"{report.experiment}.manifest.json"
    with open(os.path.join(out_dir, manifest_name), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    names.append(manifest_name)
    return sorted(names)


def _collect_warnings(records, notes: List[str]) -> None:
    counts: Dict[str, int] = {}
    for rec in records:
        key = rec.category.__name__
        counts[key] = counts.get(key, 0) + 1
    for key in sorted(counts):
        notes.append(f"warnings: {key} x{counts[key]}")


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Dispatch to the configured experiment's runner.  Validation has
    already imported its module, so the import here is a lookup."""
    return _runner_module(config.experiment)._RUNNERS[config.experiment](config)
