"""Reproducible experiment drivers behind the ``lab`` command line tool.

Each experiment takes a validated :class:`ExperimentConfig`, runs a fixed
pipeline over the library primitives, and returns a :class:`RunReport`
holding CSV tables, a JSON result object, and the list of invariant
violations.  :func:`write_report` serializes a report into an output
directory: one CSV file per table, one JSON file with the full results,
and a manifest echoing the configuration.  Reports contain no timestamps
or environment-dependent fields, so a re-run with the same configuration
and seed produces byte-identical files.
"""

from __future__ import annotations

import copy
import json
import os
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from mpmath import mp, mpf

from . import __version__
from .billiard import (build_polygon, escape_sets, perpendicular_periodicity,
                       rhombus)
from .cantor import (DEFAULT_MATERIALIZE_CAP, DEFAULT_SCAN_CAP,
                     local_dimension_report, select_sequence, separation_report)
from .circle import (CirclePoint, angle_point, continued_fraction,
                     detect_rational_angle, eval_number, three_distance_gap)
from .dimension import average_length_cover, escape_cover, hs_sum
from .dioph import approx_solutions, minkowski_solutions, ubiquity_deficiency, ubiquity_rho
from .errors import ConfigError, ScheduleNotFound
from .fixedpoint import mpf_to_fraction, power_floor, to_fixed
from .intervals import _dps_for, fmt
from .rng import Generator

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "RunReport",
    "apply_overrides",
    "construct_twosided_target",
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
_GOLDEN_RHOMBUS = {"kind": "rhombus", "alpha": "pi*(sqrt(5)-1)/4", "side": 1}

#: Per-experiment options as ``key: (default, check)``.  A configuration
#: may only set keys listed for its experiment (plus the common keys);
#: unknown keys are rejected so typos cannot silently fall back to defaults.
_COMMON: Dict[str, Tuple[Any, Check]] = {
    "seed": (20260818, _integer(0)),
    "out_dir": ("lab_out", _path),
}
_SCHEMA: Dict[str, Dict[str, Tuple[Any, Check]]] = {
    "thm1_cover": {
        "precision_bits": (256, _BITS),
        "polygon": _polygon(_GOLDEN_RHOMBUS, "rhombus", "parallelogram"),
        "theta": ("0.3", _expr()),
        # approx_solutions takes the schedule exponent 1 - delta >= 2^-19
        "delta": (0.1, _real(0, 1 - 2 ** -19, "(]")),
        "eps": (0.1, _UNIT),
        "s": (None, _optional(_UNIT)),
        "p_max": (4096, _COUNT),
        "schedule_steps": (3, _COUNT),
        "schedule_shrink": (0.5, _real(0, 1, "(]")),
        "reflection_cap": (100000, _COUNT),
        "control_alpha": ("pi/3", _optional(_ANGLE)),
        "control_max_n": (64, _COUNT),
    },
    "thm2_cover": {
        "precision_bits": (512, _BITS),
        "polygon": _polygon(_GOLDEN_RHOMBUS, "rhombus", "parallelogram"),
        "mu": (2.0, _real(1, _INF, "[)")),
        "eps": (0.1, _UNIT),
        "construct_steps": (6, _COUNT),
        "p_max": (4096, _COUNT),
        "n_cap": (100, _COUNT),
        "reflection_cap": (20000, _COUNT),
    },
    "cantor_dim": {
        "precision_bits": (512, _BITS),
        "omega": ("(sqrt(5)-1)/2", _expr()),
        "mu": (2.0, _real(1, _INF)),
        "m": (1, _COUNT),
        "depth": (4, _integer(2)),
        "growth_margin": (0.1, _UNIT),
        "scan_cap": (DEFAULT_SCAN_CAP, _COUNT),
        "materialize_cap": (DEFAULT_MATERIALIZE_CAP, _COUNT),
        "ratio_floor": (None, _optional(_UNIT)),
    },
    "ubiquity": {
        "precision_bits": (256, _BITS),
        "omega": ("sqrt(2)-1", _expr()),
        "m": (2, _COUNT),
        "l": (1, _integer(0)),
        "coverage_constant": (1.0, _real(0, 10 ** 9)),
        "eps": (0.05, _UNIT),
        "n_values": ([100, 1000, 10000], _list(_COUNT, increasing=True)),
        "threshold": (0.05, _UNIT),
    },
    "minkowski_scan": {
        "precision_bits": (256, _BITS),
        "pairs": (100, _COUNT),
        "p_max": (1000000, _COUNT),
        "min_solutions": (5, _COUNT),
    },
    "perp_orbits": {
        "precision_bits": (256, _BITS),
        "polygon": _polygon({"kind": "rhombus", "alpha": "pi/4", "side": 1},
                            "rhombus"),
        "samples": (2000, _COUNT),
        "reflection_cap": (100000, _COUNT),
        "singular_allowance": (10, _integer(0)),
        "undecided_threshold": (0.05, _UNIT),
        "cap_doubling": (False, _boolean),
    },
    "three_distance_audit": {
        "precision_bits": (256, _BITS),
        "omegas": (["(sqrt(5)-1)/2", "sqrt(2)-1"], _list(_expr())),
        "q_max": (100000, _COUNT),
        "e1_trials": (10000, _COUNT),
        # j is drawn on numpy's 32-bit path, the one rng.Generator reproduces
        "e1_j_max": (1000, _integer(1, (1 << 32) - 1)),
        "e1_check_sample": (50, _integer(0)),
    },
}


def _check_across(opts: Mapping[str, Any]) -> None:
    """The rules that tie one option to another."""
    name = opts["experiment"]
    # the Hausdorff-sum exponent the run derives must lie in (0, 1]
    if name == "thm1_cover" and opts["s"] is None and 0.5 + opts["eps"] > 1:
        raise ConfigError(f"s = 0.5 + eps must be <= 1 when s is null, "
                          f"got eps={opts['eps']}")
    if name == "thm2_cover":
        s_main = 1 / (opts["mu"] + 1) + opts["eps"]
        if s_main > 1:
            raise ConfigError(f"cover exponent 1/(mu+1) + eps must be <= 1, "
                              f"got {s_main:g}")
    if name == "ubiquity" and opts["l"] >= opts["m"]:
        raise ConfigError(f"residue l={opts['l']} must be < m={opts['m']}")


class ExperimentConfig:
    """Validated options for one experiment run.

    Options are exposed as attributes (``config.p_max``); the schema is the
    union of the common keys (experiment, seed, out_dir) and the experiment's
    entry in the module-level option table.
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
        if name not in _SCHEMA:
            raise ConfigError(f"unknown experiment {name!r}; expected one of "
                              f"{sorted(_SCHEMA)}")
        declared = obj.get("experiment")
        if declared is not None and declared != name:
            raise ConfigError(f"config declares experiment {declared!r} but "
                              f"{name!r} was requested")
        table = {**_COMMON, **_SCHEMA[name]}
        unknown = set(obj) - set(table) - {"experiment"}
        if unknown:
            raise ConfigError(f"unknown option(s) for {name}: {sorted(unknown)}")
        opts: Dict[str, Any] = {"experiment": name}
        for key, (default, check) in table.items():
            opts[key] = check(key, obj.get(key, default))
        _check_across(opts)
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

@dataclass
class RunReport:
    """Outcome of one experiment run, ready for serialization."""

    experiment: str
    violations: List[str]
    notes: List[str]
    tables: Dict[str, Tuple[str, List[str]]]
    data: Dict[str, Any]
    config: ExperimentConfig = field(repr=False)

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


# --------------------------------------------------------------------------
# escape-set covers along Diophantine schedules
# --------------------------------------------------------------------------

def _deltadio_schedule(t: CirclePoint, omega: CirclePoint, delta: float,
                       p_max: int, sign: int, steps: int,
                       shrink: float) -> List[int]:
    """Indices N with ||t + sign*N*omega|| < N^-(1-delta), distance-sparsified.

    The inequality is vacuous while N^-(1-delta) >= 1/2 (no circle distance
    exceeds 1/2), so indices with N^(1-delta) <= 2 are skipped outright.
    Past that, the schedule keeps the greedy subsequence along which the
    distance shrinks by at least ``shrink`` per kept step, which singles
    out genuine approximation events while every entry remains a solution
    of the defining inequality.
    """
    sols = approx_solutions(t, omega, 1.0 - delta, 1, 0, p_max, sign)
    ns: List[int] = []
    best = None
    for sol in sols:
        n = abs(sol.p)
        if n ** (1.0 - delta) <= 2:
            continue
        distance = mpf_to_fraction(sol.distance)
        if best is not None and not distance <= Fraction(shrink) * best:
            continue
        ns.append(n)
        best = distance
        if len(ns) == steps:
            break
    if not ns:
        raise ScheduleNotFound(
            f"no solutions of ||t + p*omega|| < |p|^-{1 - delta:g} with "
            f"|p| <= {p_max}; enlarge p_max")
    return ns


_COVER_HEADER = ("side,n,count,piece_length,gate_width,escape_length,"
                 "uncertain_length,hs_sum")


def _cover_row(label: str, f_n, rep, count: int, piece: mpf, hs: mpf) -> str:
    return ",".join([label, str(rep.N), str(count), fmt(piece),
                     fmt(rep.gate_width), fmt(f_n.total_length),
                     fmt(rep.uncertain.total_length), fmt(hs)])


def _cover_schedule(entry: Dict[str, Any], q, theta, side: str, ns: List[int],
                    reflection_cap: int, exponents: List[Tuple[str, float]],
                    rows: List[str], notes: List[str], violations: List[str],
                    scope: str = "") -> None:
    """Cover F_N for each n in ns on one side.  For each (suffix, s) in
    exponents, add the H^s rows labelled side+suffix and
    entry["hs_sums" + suffix]; the strict-decay verdict reads the sums at
    the first exponent."""
    covers = [(f_n, rep, *escape_cover(f_n, rep.gate_width))
              for f_n, rep in escape_sets(q, theta, ns, reflection_cap, side)]
    all_sums = [[hs_sum(count, piece, rep.uncertain, s)
                 for _, rep, count, piece in covers] for _, s in exponents]
    for (suffix, _), sums in zip(exponents, all_sums):
        rows.extend(_cover_row(side + suffix, *cover, hs)
                    for cover, hs in zip(covers, sums))
        entry["hs_sums" + suffix] = [fmt(v) for v in sums]
    sums = all_sums[0]
    if len(sums) >= 2:
        decay = all(b < a for a, b in zip(sums, sums[1:]))
        entry["decay_strict"] = decay
        if not decay:
            violations.append(f"{side}: H^s sums do not strictly decrease "
                              f"along schedule {ns}")
    else:
        entry["decay_strict"] = None
        notes.append(f"{side}: schedule has {len(ns)} step(s){scope}; decay "
                     "not assessable")


def run_thm1(cfg: ExperimentConfig) -> RunReport:
    """Escape-set Hausdorff sums along a two-sided Diophantine schedule."""
    bits = cfg.precision_bits
    full = _dps_for(bits) - 1  # digits of a full-precision field
    q = build_polygon(cfg.polygon, bits)
    violations: List[str] = []
    notes: List[str] = []
    delta, eps = float(cfg.delta), float(cfg.eps)
    if not delta < eps:
        msg = (f"exponent ordering 1 > eps > delta > 0 violated "
               f"(eps={eps:g}, delta={delta:g}); decay is not guaranteed")
        warnings.warn(msg, UserWarning)
        notes.append("warning: " + msg)
    s = float(cfg.s) if cfg.s is not None else 0.5 + eps
    with mp.workprec(bits + 16):
        theta = eval_number(cfg.theta, bits) % (2 * mp.pi)
        t_up = angle_point(theta, bits)
        t_down = angle_point(theta - q.alpha, bits)
        om = angle_point(2 * q.alpha, bits)
    side_specs = (("up", t_up, +1), ("down", t_down, -1))
    rows: List[str] = []
    sides: Dict[str, Any] = {}
    for side, target, sign in side_specs:
        entry: Dict[str, Any] = {"sign": sign, "target": fmt(target.value, 30)}
        try:
            ns = _deltadio_schedule(target, om, delta, cfg.p_max, sign,
                                    cfg.schedule_steps,
                                    shrink=float(cfg.schedule_shrink))
        except ScheduleNotFound as exc:
            entry["schedule_found"] = False
            entry["note"] = str(exc)
            notes.append(f"{side}: {exc}")
            sides[side] = entry
            continue
        entry["schedule_found"] = True
        entry["schedule"] = ns
        _cover_schedule(entry, q, theta, side, ns, cfg.reflection_cap,
                        [("", s)], rows, notes, violations)
        sides[side] = entry
    control: Dict[str, Any] = {}
    if cfg.control_alpha is not None:
        q_ctl = rhombus(cfg.control_alpha, side=cfg.polygon["side"],
                        precision_bits=bits)
        n, ctl_ns = 1, []
        while n <= cfg.control_max_n:
            ctl_ns.append(n)
            n *= 2
        ctl_sums = []
        certified_empty = False
        residual = None
        for f_n, rep in escape_sets(q_ctl, theta, ctl_ns,
                                    cfg.reflection_cap, "up"):
            count, piece = escape_cover(f_n, rep.gate_width)
            ctl_sums.append(hs_sum(count, piece, rep.uncertain, s))
            rows.append(_cover_row("control_up", f_n, rep, count, piece,
                                   ctl_sums[-1]))
            # The certified escape cover is empty once no pieces and no
            # escape length remain; the H^s sum then carries only the
            # 2-ulp guard shards around singular vertex rays, which the
            # exact engine keeps as explicit uncertainty instead of
            # rounding to zero.
            if not count:
                certified_empty = True
                residual = rep.uncertain.total_length
                break
        control = {"alpha": cfg.control_alpha, "schedule": ctl_ns[:len(ctl_sums)],
                   "hs_sums": [fmt(v) for v in ctl_sums],
                   "certified_empty": certified_empty,
                   "residual_uncertain": fmt(residual) if residual is not None
                   else None}
        if not certified_empty:
            violations.append("control: escape cover never certified empty "
                              "on the rational-angle fixture")
    data = {"s": fmt(s), "delta": fmt(delta), "eps": fmt(eps),
            "theta": fmt(theta, full), "omega": fmt(om.value, full),
            "sides": sides, "control": control}
    return RunReport("thm1_cover", violations, notes,
                     {"covers": (_COVER_HEADER, rows)}, data, cfg)


# --------------------------------------------------------------------------
# two-sided well-approximable targets
# --------------------------------------------------------------------------

def construct_twosided_target(omega: CirclePoint, mu: float,
                              steps: int) -> Dict[str, Any]:
    """Build t whose orbit satisfies ||t + sign*p*omega|| < p^-mu alternately.

    Witnesses alternate (sign=-1, p odd) and (sign=+1, p even), starting
    with the odd/minus pair.  Each step jumps by an odd continued-fraction
    denominator D with ||D*omega|| below a third of the current interval's
    half-width, so the new witness interval nests inside the previous one;
    the returned target is the center of the innermost interval.  The
    construction and the final witness verification both run in exact
    fixed-point arithmetic with a drift allowance of one ulp per orbit step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not mu >= 1:
        raise ValueError("mu must be >= 1")
    bits = omega.precision_bits
    scale = 1 << bits
    w = to_fixed(omega.value, bits)
    cf = continued_fraction(omega, max_depth=2048)
    with mp.workprec(bits + 64):
        mu_m = mpf(mu)
        p = 3
        while power_floor(p, mu_m, bits) >= scale // 16:
            p += 2
        sign = -1
        c = (p * w) % scale
        h = power_floor(p, mu_m, bits) // 2
        witnesses = [(sign, p)]
        for _ in range(1, steps):
            sign = -sign
            target = h // 3
            D = None
            for _, qd in cf.convergents:
                if qd % 2 == 1 and qd > 2 * p:
                    dd = (qd * w) % scale
                    dd = min(dd, scale - dd)
                    if dd <= target:
                        D = qd
                        break
            if D is None:
                raise ScheduleNotFound(
                    f"no odd denominator jump below {target}/2^{bits} within "
                    f"{len(cf.convergents)} validated convergents")
            p_next = D - p
            c_next = ((-sign) * p_next * w) % scale
            dd = (c_next - c) % scale
            dd = min(dd, scale - dd)
            if dd > h // 3:
                raise AssertionError("jump left the nesting window")
            h_next = min(power_floor(p_next, mu_m, bits) // 2, h // 3)
            if h_next < (p_next << 16):
                raise ScheduleNotFound(
                    f"witness index {p_next} needs more than {bits} bits of "
                    "precision; raise precision_bits or lower construct_steps")
            witnesses.append((sign, p_next))
            p, c, h = p_next, c_next, h_next
        t_fp = c % scale
        t = CirclePoint(mpf(t_fp) / scale, bits)
        rows = []
        all_ok = True
        for sgn, pw in witnesses:
            d_fp = (t_fp + sgn * pw * w) % scale
            d_fp = min(d_fp, scale - d_fp)
            ok = d_fp + pw + 2 < power_floor(pw, mu_m, bits)
            all_ok = all_ok and ok
            dist = mpf(d_fp) / scale
            normalized = dist * mp.power(pw, mu_m)
            rows.append({"sign": sgn, "p": pw, "parity": pw % 2,
                         "distance": dist, "normalized": normalized,
                         "certified": bool(ok)})
    return {"t": t, "t_fp": t_fp, "witnesses": rows, "all_certified": all_ok}


def run_thm2(cfg: ExperimentConfig) -> RunReport:
    """Escape covers for a constructed two-sided well-approximable direction."""
    bits = cfg.precision_bits
    full = _dps_for(bits) - 1  # digits of a full-precision field
    q = build_polygon(cfg.polygon, bits)
    violations: List[str] = []
    notes: List[str] = []
    mu, eps = float(cfg.mu), float(cfg.eps)
    om_alpha = angle_point(q.alpha, bits)
    built = construct_twosided_target(om_alpha, mu, cfg.construct_steps)
    t = built["t"]
    with mp.workprec(bits + 16):
        theta = t.value * mp.pi
    wit_rows = []
    evens, odds = [], []
    for row in built["witnesses"]:
        side = "up" if row["parity"] == 0 else "down"
        wit_rows.append(",".join([str(row["p"]), str(row["sign"]),
                                  str(row["parity"]), side,
                                  fmt(row["distance"], 25),
                                  fmt(row["normalized"], 10),
                                  str(row["certified"])]))
        (evens if row["parity"] == 0 else odds).append(row)
    if not built["all_certified"]:
        violations.append("a constructed witness failed exact verification")
    if len(evens) < 3 or len(odds) < 3:
        violations.append(f"need >= 3 even and >= 3 odd witnesses, got "
                          f"{len(evens)} even / {len(odds)} odd")
    refound = {"checked": 0, "found": 0}
    for sgn, l in ((-1, 1), (+1, 0)):
        sols = approx_solutions(t, om_alpha, mu, 2, l, cfg.p_max, sgn)
        have = {abs(s.p) for s in sols}
        for row in built["witnesses"]:
            if row["sign"] == sgn and row["p"] % 2 == (l % 2) and row["p"] <= cfg.p_max:
                refound["checked"] += 1
                if row["p"] in have:
                    refound["found"] += 1
                else:
                    violations.append(f"witness p={row['p']} not re-found by "
                                      "the residue-class solution scan")
    s_main = 1.0 / (mu + 1.0) + eps
    s_low = max(1.0 / (mu + 1.0) - eps, 0.02)
    cover_rows: List[str] = []
    schedules: Dict[str, Any] = {}
    for side, parity, to_n in (("down", 1, lambda p: (p - 1) // 2),
                               ("up", 0, lambda p: p // 2)):
        ns = sorted({to_n(row["p"]) for row in built["witnesses"]
                     if row["parity"] == parity and 1 <= to_n(row["p"]) <= cfg.n_cap})
        entry: Dict[str, Any] = {"schedule": ns}
        if not ns:
            notes.append(f"{side}: no witness level within n_cap={cfg.n_cap}")
            schedules[side] = entry
            continue
        _cover_schedule(entry, q, theta, side, ns, cfg.reflection_cap,
                        [("", s_main), ("_low_s", s_low)], cover_rows, notes,
                        violations, scope=f" within n_cap={cfg.n_cap}")
        schedules[side] = entry
    data = {"mu": fmt(mu), "eps": fmt(eps), "s": fmt(s_main),
            "s_low": fmt(s_low), "theta": fmt(theta, full),
            "t": fmt(t.value, full),
            "omega_alpha": fmt(om_alpha.value, full),
            "witness_counts": {"even": len(evens), "odd": len(odds)},
            "refound": refound, "schedules": schedules}
    tables = {
        "witnesses": ("p,sign,parity,side,distance,normalized,certified",
                      wit_rows),
        "covers": (_COVER_HEADER, cover_rows),
    }
    return RunReport("thm2_cover", violations, notes, tables, data, cfg)


# --------------------------------------------------------------------------
# mass hierarchies
# --------------------------------------------------------------------------

def run_cantor(cfg: ExperimentConfig) -> RunReport:
    """Build a nested mass hierarchy and audit its local dimension ladder."""
    bits = cfg.precision_bits
    full = _dps_for(bits) - 1  # digits of a full-precision field
    violations: List[str] = []
    notes: List[str] = []
    om = CirclePoint.make(cfg.omega, bits)
    cf = continued_fraction(om, max_depth=2048)
    mu, m = float(cfg.mu), cfg.m
    h = select_sequence(cf, mu, m, cfg.depth, cfg.growth_margin,
                        scan_cap=cfg.scan_cap,
                        materialize_cap=cfg.materialize_cap)
    dims = local_dimension_report(h)
    floor = (float(cfg.ratio_floor) if cfg.ratio_floor is not None
             else 1.0 / mu - 0.1)
    deepest = dims[-1][1]
    if not deepest >= floor:
        violations.append(f"deepest local dimension ratio {fmt(deepest, 10)} "
                          f"fell below the floor {floor:g}")
    for k in range(1, h.depth + 1):
        if h.level(k).mass_total() != Fraction(1):
            violations.append(f"level {k} masses do not sum to 1 exactly")
    unions = [h.level_union(k) if h.level(k).materialized else None
              for k in range(1, h.depth + 1)]
    for k in range(1, h.depth):
        outer, inner = unions[k - 1], unions[k]
        if outer is None or inner is None:
            notes.append(f"nesting of level {k + 1} in level {k} verified "
                         "during construction (counted level)")
            continue
        if not inner.is_subset_of(outer):
            violations.append(f"level {k + 1} union escapes level {k}")
    with mp.workprec(bits + 64):
        scale = mpf(1 << bits)
        for k in range(1, h.depth + 1):
            lvl = h.level(k)
            nominal = mp.power(2 * abs(lvl.n_k), -mpf(mu)) * scale
            gap = nominal - 2 * lvl.half_fp
            if not (0 <= gap <= 2):
                violations.append(f"level {k} interval length is off the "
                                  f"(2|n|)^-mu law by {fmt(gap, 8)} ulps")
    level_rows = []
    for k in range(1, h.depth + 1):
        lvl = h.level(k)
        level_rows.append(",".join([str(k), str(lvl.n_k), str(lvl.count),
                                    str(lvl.half_fp),
                                    str(lvl.max_mass()),
                                    fmt(dims[k - 1][1], 12)]))
    sep_rows = []
    for row in separation_report(h):
        sep_rows.append(",".join([str(row["level"]), str(row["n_k"]),
                                  fmt(row["orbit_min_distance"], 15),
                                  fmt(row["measured_min_distance"], 15)
                                  if row["measured_min_distance"] is not None else "",
                                  fmt(row["claimed_bound"], 15),
                                  str(row["claimed_ok"]),
                                  fmt(row["companion_bound"], 15),
                                  str(row["companion_ok"])]))
    data = {"omega": fmt(om.value, full), "mu": fmt(mu), "m": m,
            "sequence": list(h.sequence), "ratio_floor": fmt(floor),
            "local_dimensions": [[k, fmt(r, 12)] for k, r in dims],
            "hierarchy": h.to_json_obj()}
    tables = {
        "levels": ("k,n_k,count,half_width_ulps,max_mass,local_dim", level_rows),
        "separation": ("level,n_k,orbit_min,measured_min,claimed_bound,"
                       "claimed_ok,companion_bound,companion_ok", sep_rows),
    }
    return RunReport("cantor_dim", violations, notes, tables, data, cfg)


# --------------------------------------------------------------------------
# ubiquity, Minkowski scans, perpendicular orbits, audits
# --------------------------------------------------------------------------

def run_ubiquity(cfg: ExperimentConfig) -> RunReport:
    """Coverage deficiency of shrinking arcs along a residue class."""
    bits = cfg.precision_bits
    full = _dps_for(bits) - 1  # digits of a full-precision field
    om = CirclePoint.make(cfg.omega, bits)
    m, l = cfg.m, cfg.l
    K, eps = float(cfg.coverage_constant), float(cfg.eps)
    violations: List[str] = []
    notes: List[str] = []
    rows = []
    deficiencies = []
    for n in cfg.n_values:
        rho = ubiquity_rho(m, l, n, K, eps, bits=bits)
        defi = ubiquity_deficiency(om, m, l, n, K, eps)
        deficiencies.append(defi)
        rows.append(",".join([str(n), fmt(rho, 15), fmt(defi, 15)]))
    for a, b in zip(deficiencies, deficiencies[1:]):
        if b > a:
            violations.append("coverage deficiency increased along the N ladder")
            break
    threshold = float(cfg.threshold)
    if not deficiencies[-1] < threshold:
        violations.append(f"final deficiency {fmt(deficiencies[-1], 10)} is "
                          f"not below {threshold:g}")
    data = {"omega": fmt(om.value, full), "m": m, "l": l,
            "coverage_constant": fmt(K), "eps": fmt(eps),
            "n_values": list(cfg.n_values),
            "deficiencies": [fmt(v, 15) for v in deficiencies]}
    return RunReport("ubiquity", violations, notes,
                     {"deficiency": ("n,rho,deficiency", rows)}, data, cfg)


def run_minkowski(cfg: ExperimentConfig) -> RunReport:
    """Random (t, omega) pairs each admit ||t + p*omega|| < 1/(4p) solutions."""
    bits = cfg.precision_bits
    violations: List[str] = []
    notes: List[str] = []
    rng = Generator(cfg.seed)
    rows = []
    counts = []
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        for i in range(cfg.pairs):
            tv = rng.random()
            ov = rng.random()
            t = CirclePoint.make(tv, bits)
            om = CirclePoint.make(ov, bits)
            sols = minkowski_solutions(t, om, cfg.p_max)
            count = len(sols)
            pos = sum(1 for s in sols if s.p > 0)
            counts.append(count)
            rows.append(",".join([str(i), repr(tv), repr(ov), str(count),
                                  str(pos), str(count - pos)]))
            if count < cfg.min_solutions:
                violations.append(f"pair {i}: only {count} integer solutions "
                                  f"with |p| <= {cfg.p_max}")
    _collect_warnings(records, notes)
    data = {"pairs": cfg.pairs, "p_max": cfg.p_max,
            "min_solutions_required": cfg.min_solutions,
            "min_count": min(counts) if counts else 0,
            "max_count": max(counts) if counts else 0}
    return RunReport("minkowski_scan", violations, notes,
                     {"pairs": ("index,t,omega,count,positive_p,negative_p",
                                rows)},
                     data, cfg)


def _perp_row(cap: int, res: Mapping[str, Any]) -> str:
    return ",".join([str(cap), str(res["samples"]), str(res["returned"]),
                     str(res["vertex_uncertain"]), str(res["budget_exhausted"]),
                     fmt(res["periodic_fraction"], 12),
                     fmt(res["undecided_fraction"], 12),
                     str(res["retrace_checked"]), str(res["retrace_returned"]),
                     str(res["retrace_exact"])])


def run_perp(cfg: ExperimentConfig) -> RunReport:
    """Periodicity statistics of the perpendicular direction in a rhombus."""
    bits = cfg.precision_bits
    full = _dps_for(bits) - 1  # digits of a full-precision field
    q = build_polygon(cfg.polygon, bits)
    violations: List[str] = []
    notes: List[str] = []
    with mp.workprec(bits + 16):
        om = angle_point(2 * q.alpha, bits)
    rational = detect_rational_angle(om)
    res = perpendicular_periodicity(q, cfg.samples, cfg.reflection_cap)
    rows = [_perp_row(cfg.reflection_cap, res)]
    results = {"base": {k: (fmt(v, 15) if isinstance(v, mpf) else v)
                        for k, v in res.items()}}
    if rational is not None:
        mode = "rational"
        floor = Fraction(cfg.samples - cfg.singular_allowance, cfg.samples)
        if not res["periodic_fraction"] >= mpf(floor.numerator) / floor.denominator:
            violations.append(
                f"periodic fraction {fmt(res['periodic_fraction'], 10)} below "
                f"1 - {cfg.singular_allowance}/{cfg.samples}")
        notes.append(f"rotation number is rational ({rational}); expecting "
                     "periodicity off a singular set")
    else:
        mode = "irrational"
        thr = float(cfg.undecided_threshold)
        if not res["undecided_fraction"] <= thr:
            violations.append(f"undecided fraction "
                              f"{fmt(res['undecided_fraction'], 10)} exceeds "
                              f"{thr:g}")
    if cfg.cap_doubling:
        res2 = perpendicular_periodicity(q, cfg.samples, 2 * cfg.reflection_cap)
        rows.append(_perp_row(2 * cfg.reflection_cap, res2))
        results["doubled_cap"] = {k: (fmt(v, 15) if isinstance(v, mpf) else v)
                                  for k, v in res2.items()}
        if res2["undecided_fraction"] > res["undecided_fraction"]:
            violations.append("undecided fraction increased when the "
                              "reflection budget doubled")
    data = {"mode": mode,
            "rotation_number": str(rational) if rational is not None else None,
            "alpha": fmt(q.alpha, full), "results": results}
    header = ("reflection_cap,samples,returned,vertex_uncertain,"
              "budget_exhausted,periodic_fraction,undecided_fraction,"
              "retrace_checked,retrace_returned,retrace_exact")
    return RunReport("perp_orbits", violations, notes,
                     {"periodicity": (header, rows)}, data, cfg)


def run_audits(cfg: ExperimentConfig) -> RunReport:
    """Three-distance minimum-gap audit plus the average-length packing audit.

    A packing trial draws j lengths a_k and counts Σ⌊a_k·j/Σa⌋ + j pieces.
    Each floor is at most a_k·j/Σa, so the count is at most 2j < 3j: no
    trial can break the 3j bound.  So only the trials the report reads are
    drawn, the first max(e1_check_sample, 10) of the e1_trials, and the rest
    are settled by that identity; stopping the stream early changes none
    of the values drawn before the cutoff."""
    bits = cfg.precision_bits
    violations: List[str] = []
    notes: List[str] = []
    gap_rows = []
    claimed_violations = 0
    for expr in cfg.omegas:
        om = CirclePoint.make(expr, bits)
        cf = continued_fraction(om, max_depth=512)
        for r in range(1, cf.validated_depth):
            q_r = cf.denominator(r)
            if q_r > cfg.q_max:
                break
            q_next = cf.denominator(r + 1)
            gap = three_distance_gap(cf, r)
            with mp.workprec(bits + 16):
                claimed = mpf(1) / (q_r + 2)
                true_bound = mpf(1) / (q_next + q_r)
            claimed_ok = bool(gap >= claimed)
            true_ok = bool(gap >= true_bound)
            gap_rows.append(",".join([json.dumps(expr), str(r), str(q_r),
                                      str(q_next), fmt(gap, 15),
                                      fmt(claimed, 15), str(claimed_ok),
                                      fmt(true_bound, 15), str(true_ok)]))
            if not claimed_ok:
                claimed_violations += 1
                violations.append(f"omega={expr}, r={r}: min gap "
                                  f"{fmt(gap, 10)} < 1/(q_r+2)")
            if not true_ok:
                violations.append(f"omega={expr}, r={r}: min gap below "
                                  "1/(q_(r+1)+q_r)")
    rng = Generator(cfg.seed)
    packing_violations = 0
    cross_checked = 0
    cross_failures = 0
    example_rows = []
    for i in range(min(cfg.e1_trials, max(cfg.e1_check_sample, 10))):
        j = rng.integers(1, cfg.e1_j_max + 1)
        lens = rng.integers(1, 1 << 30, size=j)
        total = sum(lens)
        count = sum(a * j // total for a in lens) + j
        ok = count <= 3 * j
        if not ok:
            packing_violations += 1
        if i < cfg.e1_check_sample:
            rep = average_length_cover(lens, total)
            cross_checked += 1
            if rep.count != count or rep.bound_3n_ok != ok:
                cross_failures += 1
        if i < 10:
            example_rows.append(",".join([str(i), str(j), str(count),
                                          str(3 * j), str(ok)]))
    if packing_violations:
        violations.append(f"{packing_violations} packing trials exceeded the "
                          "3n piece bound")
    if cross_failures:
        violations.append(f"{cross_failures} integer-arithmetic packing counts "
                          "disagreed with average_length_cover")
    data = {"q_max": cfg.q_max, "omegas": list(cfg.omegas),
            "gap_rows": len(gap_rows),
            "claimed_bound_violations": claimed_violations,
            "packing": {"trials": cfg.e1_trials, "j_max": cfg.e1_j_max,
                        "violations": packing_violations,
                        "cross_checked": cross_checked,
                        "cross_failures": cross_failures}}
    tables = {
        "three_distance": ("omega,r,q_r,q_next,min_gap,claimed_bound,"
                           "claimed_ok,true_bound,true_ok", gap_rows),
        "packing": ("index,j,count,bound_3j,ok", example_rows),
    }
    return RunReport("three_distance_audit", violations, notes,
                     tables, data, cfg)


EXPERIMENTS = {
    "thm1_cover": run_thm1,
    "thm2_cover": run_thm2,
    "cantor_dim": run_cantor,
    "ubiquity": run_ubiquity,
    "minkowski_scan": run_minkowski,
    "perp_orbits": run_perp,
    "three_distance_audit": run_audits,
}


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Dispatch to the configured experiment's runner."""
    return EXPERIMENTS[config.experiment](config)
